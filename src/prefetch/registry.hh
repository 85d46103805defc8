/**
 * @file
 * String-keyed prefetcher registry.
 *
 * Every prefetcher self-registers a name, the cache levels it can attach
 * to, and a factory hook that receives the run's tuning knobs. A name
 * may fix a constructor flag: "triage_ideal" is "triage" built with
 * unlimited metadata. The experiment layer builds prefetchers purely by
 * name, so adding a new scheme is one registration call next to its
 * class — no enum edits, no switch statements in the runner.
 */

#ifndef SL_PREFETCH_REGISTRY_HH
#define SL_PREFETCH_REGISTRY_HH

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace sl
{

struct StreamlineConfig;
struct TriangelConfig;

/**
 * Per-run tuning knobs handed to a registered factory hook. Pointers are
 * null when the run carries no override for that family; factories must
 * copy what they need (the pointed-to configs only live for the duration
 * of the factory call).
 */
struct PrefetcherTuning
{
    const StreamlineConfig* streamline = nullptr;
    const TriangelConfig* triangel = nullptr;
};

/**
 * The registry. Thread-safe: registration and lookup may race with the
 * parallel BatchRunner's workers. Names are unique; re-registering a
 * name throws SimError (catching copy-paste duplicates early).
 */
class PrefetcherRegistry
{
  public:
    /** Cache levels a prefetcher can attach to (bitmask). */
    enum Level : int { L1 = 1, L2 = 2, Both = L1 | L2 };

    /**
     * A factory hook: given the run's tuning, produce the per-core
     * PrefetcherFactory the System builder consumes. An empty
     * PrefetcherFactory means "no prefetcher" (the "none" entry).
     */
    using Hook = std::function<PrefetcherFactory(const PrefetcherTuning&)>;

    /** Register @p name for @p levels. Throws SimError on duplicates. */
    void add(const std::string& name, int levels, Hook hook);

    /**
     * Build the factory for @p name at @p level. Throws SimError listing
     * the known names when @p name is unknown or not registered for the
     * requested level.
     */
    PrefetcherFactory make(const std::string& name, int level,
                           const PrefetcherTuning& tuning) const;

    /** Validate @p name at @p level without building; throws SimError. */
    void require(const std::string& name, int level) const;

    /** True when @p name is registered for @p level. */
    bool has(const std::string& name, int level) const;

    /** All names registered for @p level, in registration order. */
    std::vector<std::string> names(int level) const;

  private:
    struct Entry
    {
        std::string name;
        int levels;
        Hook hook;
    };

    /** Locked lookup helper; throws when absent. */
    const Entry& find(const std::string& name, int level) const;

    mutable std::mutex mu_;
    std::vector<Entry> entries_;
};

/**
 * The process-wide registry, with every built-in prefetcher registered
 * on first use. External schemes may add() more at any time.
 */
PrefetcherRegistry& prefetcherRegistry();

/**
 * Self-registration hooks, each defined next to the prefetcher class it
 * registers (stride.cc, berti.cc, ..., streamline.cc, triage.cc,
 * triangel.cc). Called once by prefetcherRegistry(); listed here so the
 * hook signatures have a single source of truth.
 */
void registerStridePrefetchers(PrefetcherRegistry& reg);
void registerBertiPrefetchers(PrefetcherRegistry& reg);
void registerIpcpPrefetchers(PrefetcherRegistry& reg);
void registerBingoPrefetchers(PrefetcherRegistry& reg);
void registerSppPrefetchers(PrefetcherRegistry& reg);
void registerStreamlinePrefetchers(PrefetcherRegistry& reg);
void registerTriagePrefetchers(PrefetcherRegistry& reg);
void registerTriangelPrefetchers(PrefetcherRegistry& reg);

} // namespace sl

#endif // SL_PREFETCH_REGISTRY_HH
