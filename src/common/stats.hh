/**
 * @file
 * Lightweight statistics counters and a named registry.
 *
 * Each simulated component owns a StatGroup; the experiment runner walks the
 * registry to print or diff counters. Counters are plain integers — the
 * simulator is single-threaded by design.
 */

#ifndef SL_COMMON_STATS_HH
#define SL_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serializer.hh"

namespace sl
{

/** A single named 64-bit counter. */
class Counter
{
  public:
    Counter() = default;

    Counter& operator++() { ++value_; return *this; }
    Counter& operator+=(std::uint64_t v) { value_ += v; return *this; }
    void reset() { value_ = 0; }
    void set(std::uint64_t v) { value_ = v; }

    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A named group of counters. Components register their counters once at
 * construction; lookups afterwards are direct pointer dereferences.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Register (or fetch) a counter under @p key. */
    Counter&
    counter(const std::string& key)
    {
        return counters_[key];
    }

    /** Read a counter; returns 0 if it was never registered. */
    std::uint64_t
    get(const std::string& key) const
    {
        auto it = counters_.find(key);
        return it == counters_.end() ? 0 : it->second.value();
    }

    void
    resetAll()
    {
        for (auto& [k, c] : counters_)
            c.reset();
    }

    const std::string& name() const { return name_; }
    const std::map<std::string, Counter>& counters() const
    {
        return counters_;
    }

    /**
     * Snapshot the counter map as (name, value) pairs. std::map keeps
     * keys sorted, so save order is deterministic; load creates (or
     * overwrites) counters by name, reproducing exactly the save-time
     * counter set -- counters that only register lazily on first
     * increment (HotCounter) stay absent if they never fired, keeping
     * stat digests over the map identical across a restore.
     */
    void
    serializeState(Serializer& s)
    {
        std::uint64_t n = counters_.size();
        s.io(n);
        if (s.saving()) {
            for (auto& [k, c] : counters_) {
                std::string key = k;
                std::uint64_t v = c.value();
                s.io(key);
                s.io(v);
            }
        } else {
            for (std::uint64_t i = 0; i < n; ++i) {
                std::string key;
                std::uint64_t v = 0;
                s.io(key);
                s.io(v);
                counters_[key].set(v);
            }
        }
    }

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
};

/**
 * Hot-path counter handle that preserves lazy registration.
 *
 * Snapshots (and the determinism digests built on them) only contain
 * counters that have actually fired, so a counter that is hoisted into a
 * member must NOT register itself at construction. HotCounter resolves
 * the map lookup on the first increment -- identical observable
 * behaviour to calling StatGroup::counter() at each site -- and sticks
 * to the cached pointer afterwards.
 */
class HotCounter
{
  public:
    HotCounter(StatGroup& group, const char* key)
        : group_(group), key_(key)
    {
    }

    HotCounter& operator++()
    {
        ++resolve();
        return *this;
    }

    HotCounter& operator+=(std::uint64_t v)
    {
        resolve() += v;
        return *this;
    }

    /** Raise the counter to @p v when it is lower (a high-water mark). */
    void
    noteMax(std::uint64_t v)
    {
        Counter& c = resolve();
        if (v > c.value())
            c.set(v);
    }

  private:
    Counter&
    resolve()
    {
        if (!counter_)
            counter_ = &group_.counter(key_);
        return *counter_;
    }

    StatGroup& group_;
    const char* key_;
    Counter* counter_ = nullptr;
};

/** Ratio helper that is safe against zero denominators. */
inline double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0 : static_cast<double>(num) /
                            static_cast<double>(den);
}

/** Percentage helper. */
inline double
pct(std::uint64_t num, std::uint64_t den)
{
    return 100.0 * ratio(num, den);
}

/** Geometric mean of speedups (the paper's summary statistic). */
double geomean(const std::vector<double>& xs);

} // namespace sl

#endif // SL_COMMON_STATS_HH
