/**
 * @file
 * SPEC 2006 / SPEC 2017-like synthetic kernels.
 *
 * Each kernel mimics the dominant memory access structure of one of the
 * paper's memory-intensive SPEC benchmarks: pointer chasing (mcf), priority
 * queues (omnetpp), hash-chain walks (xalancbmk), sparse algebra (soplex),
 * and streaming/stencil codes (libquantum, lbm, roms, fotonik). Site ids
 * (synthetic PCs) are distinct per static access site so PC-localised
 * prefetchers behave as they would on real code.
 */

#include "trace/kernels.hh"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "common/hash.hh"
#include "common/rng.hh"

namespace sl
{
namespace kernels
{

std::size_t
recordBudget(double scale)
{
    auto n = static_cast<std::size_t>(kRecordBudgetPerScale * scale);
    return std::max<std::size_t>(n, 50'000);
}

Trace
finish(const char* name, Suite suite, TraceRecorder& rec)
{
    Trace t;
    t.name = name;
    t.suite = suite;
    t.records = rec.take();
    t.warmupRecords = t.records.size() / 5;
    return t;
}

namespace
{

constexpr Addr kRegion = 0x1000'0000; // 256MB between data structures

Addr
base(unsigned region)
{
    return Addr{0x10'0000'0000} + region * kRegion;
}

/** Shared helper: permutation of [0, n) for list threading. */
std::vector<std::uint32_t>
permutation(std::uint32_t n, Rng& rng)
{
    std::vector<std::uint32_t> p(n);
    std::iota(p.begin(), p.end(), 0u);
    for (std::uint32_t i = n - 1; i > 0; --i)
        std::swap(p[i], p[rng.below(i + 1)]);
    return p;
}

/**
 * Pointer-chase core shared by the mcf-like kernels: an arena of fixed-size
 * nodes threaded into `lists` cyclic lists, traversed round-robin, with
 * periodic scan phases (streaming accesses with no temporal reuse) that
 * mimic mcf's arc scans.
 */
Trace
mcfLike(const char* name, Suite suite, double scale, std::uint64_t seed,
        std::uint32_t nodes, unsigned lists, unsigned node_bytes,
        double scan_fraction, double budget_mult)
{
    Rng rng(seed);
    const std::size_t budget =
        static_cast<std::size_t>(recordBudget(scale) * budget_mult);
    TraceRecorder rec(budget + 64);
    nodes = std::max<std::uint32_t>(
        static_cast<std::uint32_t>(nodes * scale), 4096);

    // Thread the arena into `lists` cyclic lists via a global permutation.
    auto perm = permutation(nodes, rng);
    std::vector<std::uint32_t> next(nodes);
    const std::uint32_t per = nodes / lists;
    for (unsigned l = 0; l < lists; ++l) {
        const std::uint32_t lo = l * per;
        const std::uint32_t hi = (l + 1 == lists) ? nodes : lo + per;
        for (std::uint32_t i = lo; i < hi; ++i)
            next[perm[i]] = perm[i + 1 == hi ? lo : i + 1];
    }

    const Addr arena = base(0);
    const Addr aux = base(1);       // per-node cost structs (64B)
    const Addr scan_region = base(2);

    std::vector<std::uint32_t> cursor(lists);
    for (unsigned l = 0; l < lists; ++l)
        cursor[l] = perm[l * per];

    Addr scan_ptr = scan_region;
    unsigned visits = 0;
    while (rec.size() < budget) {
        for (unsigned l = 0; l < lists && rec.size() < budget; ++l) {
            // Visit a run of nodes on list l before rotating lists; longer
            // runs give the per-PC stream structure temporal prefetchers
            // learn.
            for (unsigned step = 0; step < 12 && rec.size() < budget;
                 ++step) {
                std::uint32_t n = cursor[l];
                rec.loadDep(10 + l, arena + Addr{n} * node_bytes, 4);
                rec.load(40, aux + Addr{n} * 64, 1);
                cursor[l] = next[n];
                ++visits;
                // Periodic scan phase: stream through fresh memory (mcf's
                // non-temporal arc scans, which Triangel bypasses).
                if (scan_fraction > 0 && visits % 4096 == 0) {
                    const auto scan_len = static_cast<std::size_t>(
                        4096 * scan_fraction * 4);
                    for (std::size_t s = 0;
                         s < scan_len && rec.size() < budget; ++s) {
                        rec.load(50, scan_ptr, 1);
                        scan_ptr += 8;
                        if (scan_ptr >= scan_region + kRegion)
                            scan_ptr = scan_region;
                    }
                }
            }
        }
    }
    return finish(name, suite, rec);
}

/** Streaming sweep over one or more large arrays (libquantum/roms/etc.). */
Trace
streamLike(const char* name, Suite suite, double scale, std::uint64_t seed,
           unsigned arrays, std::size_t array_bytes, double store_ratio)
{
    Rng rng(seed);
    const std::size_t budget = recordBudget(scale);
    array_bytes = std::max<std::size_t>(
        static_cast<std::size_t>(array_bytes * scale), std::size_t{1} << 20);

    TraceRecorder rec(budget + 64);
    std::vector<Addr> bases(arrays);
    for (unsigned a = 0; a < arrays; ++a)
        bases[a] = base(a);

    std::size_t i = 0;
    while (rec.size() < budget) {
        for (unsigned a = 0; a < arrays && rec.size() < budget; ++a) {
            const Addr addr = bases[a] + (i * 8) % array_bytes;
            if (rng.chance(store_ratio))
                rec.store(100 + a, addr, 2);
            else
                rec.load(100 + a, addr, 2);
        }
        ++i;
    }
    return finish(name, suite, rec);
}

/** Stencil sweep: read neighbours from grid A, write grid B, swap (lbm). */
Trace
stencilLike(const char* name, Suite suite, double scale, std::uint64_t seed,
            std::size_t row_elems, std::size_t rows)
{
    (void)seed;
    const std::size_t budget = recordBudget(scale);
    row_elems = std::max<std::size_t>(
        static_cast<std::size_t>(row_elems * scale), 1024);

    const Addr a_base = base(0);
    const Addr b_base = base(4);
    const std::size_t row_bytes = row_elems * 8;

    TraceRecorder rec(budget + 64);
    bool flip = false;
    while (rec.size() < budget) {
        const Addr src = flip ? b_base : a_base;
        const Addr dst = flip ? a_base : b_base;
        for (std::size_t r = 1; r + 1 < rows && rec.size() < budget; ++r) {
            for (std::size_t c = 1; c + 1 < row_elems && rec.size() < budget;
                 c += 1) {
                const Addr center = src + r * row_bytes + c * 8;
                rec.load(200, center, 1);
                rec.load(201, center - row_bytes, 0);
                rec.load(202, center + row_bytes, 0);
                rec.store(203, dst + r * row_bytes + c * 8, 1);
            }
        }
        flip = !flip;
    }
    return finish(name, suite, rec);
}

} // namespace

Trace
specMcf(double scale, std::uint64_t seed)
{
    return mcfLike("spec06_mcf", Suite::Spec06, scale, seed,
                   60'000, 8, 64, 0.6, 1.0);
}

Trace
spec17Mcf(double scale, std::uint64_t seed)
{
    return mcfLike("spec17_mcf", Suite::Spec17, scale, seed + 17,
                   90'000, 12, 64, 0.4, 1.0);
}

Trace
specOmnetpp(double scale, std::uint64_t seed)
{
    Rng rng(seed);
    const std::size_t budget = recordBudget(scale);
    TraceRecorder rec(budget + 64);
    const auto heap_cap = std::max<std::uint32_t>(
        static_cast<std::uint32_t>(40'000 * scale), 4096);
    const auto modules = std::max<std::uint32_t>(
        static_cast<std::uint32_t>(12'000 * scale), 1024);

    const Addr heap_base = base(0);     // 16B heap slots
    const Addr event_base = base(1);    // 128B event objects
    const Addr module_base = base(2);   // 256B module structs

    // Actual binary min-heap of (time, event id).
    std::vector<std::pair<std::uint64_t, std::uint32_t>> heap;
    heap.reserve(heap_cap);
    std::uint64_t now = 0;

    auto touch_slot = [&](std::size_t idx, bool write) {
        const Addr a = heap_base + idx * 16;
        if (write)
            rec.store(301, a, 1);
        else
            rec.load(300, a, 1);
    };

    auto heap_push = [&](std::uint64_t t, std::uint32_t ev) {
        heap.emplace_back(t, ev);
        std::size_t i = heap.size() - 1;
        touch_slot(i, true);
        while (i > 0) {
            std::size_t p = (i - 1) / 2;
            touch_slot(p, false);
            if (heap[p].first <= heap[i].first)
                break;
            std::swap(heap[p], heap[i]);
            touch_slot(p, true);
            i = p;
        }
    };

    auto heap_pop = [&]() {
        auto top = heap[0];
        touch_slot(0, false);
        heap[0] = heap.back();
        heap.pop_back();
        std::size_t i = 0;
        while (true) {
            std::size_t l = 2 * i + 1, r = 2 * i + 2, m = i;
            if (l < heap.size()) {
                touch_slot(l, false);
                if (heap[l].first < heap[m].first)
                    m = l;
            }
            if (r < heap.size()) {
                touch_slot(r, false);
                if (heap[r].first < heap[m].first)
                    m = r;
            }
            if (m == i)
                break;
            std::swap(heap[i], heap[m]);
            touch_slot(m, true);
            i = m;
        }
        return top;
    };

    // Seed the event queue.
    for (std::uint32_t e = 0; e < heap_cap / 2; ++e)
        heap_push(rng.below(1'000'000), e);

    while (rec.size() < budget) {
        auto [t, ev] = heap_pop();
        now = t;
        // Process the event: touch its object and a few modules (Zipf-hot).
        rec.load(310, event_base + Addr{ev % heap_cap} * 128, 3);
        const unsigned fanout = 1 + static_cast<unsigned>(rng.below(3));
        for (unsigned f = 0; f < fanout; ++f) {
            const auto m = rng.zipf(modules, 0.6);
            rec.load(311, module_base + m * 256, 2);
            rec.store(312, module_base + m * 256 + 64, 1);
        }
        // Schedule follow-up events.
        const unsigned spawn = heap.size() < heap_cap / 2 ? 2 : 1;
        for (unsigned s = 0; s < spawn; ++s)
            heap_push(now + 1 + rng.below(10'000),
                      static_cast<std::uint32_t>(rng.below(heap_cap)));
    }
    return finish("spec06_omnetpp", Suite::Spec06, rec);
}

Trace
spec17Omnetpp(double scale, std::uint64_t seed)
{
    Trace t = specOmnetpp(scale * 1.1, seed + 1717);
    t.name = "spec17_omnetpp";
    t.suite = Suite::Spec17;
    return t;
}

namespace
{

/** Hash-chain walk shared by the xalancbmk-like kernels. */
Trace
xalancLike(const char* name, Suite suite, double scale, std::uint64_t seed,
           std::uint32_t buckets, double zipf_skew)
{
    Rng rng(seed);
    const std::size_t budget = recordBudget(scale);
    TraceRecorder rec(budget + 64);
    buckets = std::max<std::uint32_t>(
        static_cast<std::uint32_t>(buckets * scale), 4096);
    const std::uint32_t node_count = buckets * 4;

    const Addr bucket_base = base(0);  // 8B head pointers
    const Addr node_base = base(1);    // 48B chain nodes
    const Addr value_base = base(3);   // 64B values

    // Build chains: node ids are allocated in shuffled order so chains
    // wander through memory like a real allocator's do.
    Rng layout_rng(seed ^ 0xabcdef);
    auto node_perm = permutation(node_count, layout_rng);
    std::vector<std::vector<std::uint32_t>> chain(buckets);
    for (std::uint32_t n = 0; n < node_count; ++n)
        chain[n % buckets].push_back(node_perm[n]);

    while (rec.size() < budget) {
        // Keys are Zipf-hot: hot chains are re-walked constantly, giving
        // repeated temporal sequences.
        const auto key = rng.zipf(buckets * 4, zipf_skew);
        const auto b = static_cast<std::uint32_t>(
            mix64(key) % buckets);
        rec.load(400, bucket_base + Addr{b} * 8, 2);
        const auto& c = chain[b];
        const std::size_t depth = c.size();
        for (std::size_t i = 0; i < depth && i < c.size(); ++i)
            rec.loadDep(401, node_base + Addr{c[i]} * 48, 3);
        // Touch the found value.
        rec.load(402, value_base + Addr{c[(depth - 1) % c.size()]} * 64, 2);
    }
    return finish(name, suite, rec);
}

} // namespace

Trace
specXalanc(double scale, std::uint64_t seed)
{
    return xalancLike("spec06_xalancbmk", Suite::Spec06, scale, seed,
                      14'000, 0.75);
}

Trace
spec17Xalanc(double scale, std::uint64_t seed)
{
    return xalancLike("spec17_xalancbmk", Suite::Spec17, scale, seed + 99,
                      20'000, 0.7);
}

Trace
specSoplex(double scale, std::uint64_t seed)
{
    // Repeated CSR SpMV: y = A*x with x far larger than the LLC. The
    // column-index gathers repeat every iteration -- classic temporal prey.
    Rng rng(seed);
    const std::size_t budget = recordBudget(scale);
    TraceRecorder rec(budget + 64);
    const auto rows = std::max<std::uint32_t>(
        static_cast<std::uint32_t>(6'000 * scale), 1024);
    const std::uint32_t nnz_per_row = 9;
    const auto cols = std::max<std::uint32_t>(
        static_cast<std::uint32_t>(300'000 * scale), 65'536);

    const Addr colidx_base = base(0);
    const Addr val_base = base(1);
    const Addr x_base = base(2);
    const Addr y_base = base(3);

    std::vector<std::uint32_t> colidx(
        static_cast<std::size_t>(rows) * nnz_per_row);
    for (auto& c : colidx)
        c = static_cast<std::uint32_t>(rng.below(cols));

    while (rec.size() < budget) {
        for (std::uint32_t r = 0; r < rows && rec.size() < budget; ++r) {
            for (std::uint32_t k = 0; k < nnz_per_row; ++k) {
                const std::size_t e =
                    static_cast<std::size_t>(r) * nnz_per_row + k;
                rec.load(500, colidx_base + e * 4, 1);
                rec.load(501, val_base + e * 8, 0);
                rec.load(502, x_base + Addr{colidx[e]} * 8, 1);
            }
            rec.store(503, y_base + Addr{r} * 8, 1);
        }
    }
    return finish("spec06_soplex", Suite::Spec06, rec);
}

Trace
specLibquantum(double scale, std::uint64_t seed)
{
    return streamLike("spec06_libquantum", Suite::Spec06, scale, seed,
                      1, std::size_t{6} << 20, 0.3);
}

Trace
specBzip2(double scale, std::uint64_t seed)
{
    // Block sorting: sequential input plus random pokes inside a ~1.5MB
    // window that mostly fits in the LLC -- memory intensive but with
    // little irregular LLC traffic (the paper notes Streamline's permanent
    // 64-set metadata allocation costs it here).
    Rng rng(seed);
    const std::size_t budget = recordBudget(scale);
    const std::size_t window = std::size_t{3} << 16; // 192KB
    const Addr in_base = base(0);
    const Addr win_base = base(1);
    const Addr out_base = base(2);

    TraceRecorder rec(budget + 64);
    Addr in_ptr = 0, out_ptr = 0;
    while (rec.size() < budget) {
        rec.load(600, in_base + (in_ptr % (kRegion / 2)), 2);
        in_ptr += 8;
        for (unsigned k = 0; k < 6 && rec.size() < budget; ++k) {
            rec.load(601, win_base + rng.below(window / 8) * 8, 2);
            if (rng.chance(0.4))
                rec.store(602, win_base + rng.below(window / 8) * 8, 1);
        }
        if (rng.chance(0.3)) {
            rec.store(603, out_base + (out_ptr % (kRegion / 2)), 2);
            out_ptr += 8;
        }
    }
    return finish("spec06_bzip2", Suite::Spec06, rec);
}

Trace
specGcc(double scale, std::uint64_t seed)
{
    // IR walk: pointer chasing with allocation-order spatial locality plus
    // symbol-table probes; moderately irregular.
    Rng rng(seed);
    const std::size_t budget = recordBudget(scale);
    TraceRecorder rec(budget + 64);
    const auto nodes = std::max<std::uint32_t>(
        static_cast<std::uint32_t>(50'000 * scale), 8192);

    const Addr ir_base = base(0);      // 96B IR nodes
    const Addr symtab_base = base(2);  // 32B symbol slots

    // 80% of next-pointers go to the sequentially next node; 20% jump.
    std::vector<std::uint32_t> next(nodes);
    for (std::uint32_t n = 0; n < nodes; ++n) {
        next[n] = rng.chance(0.8)
                      ? (n + 1) % nodes
                      : static_cast<std::uint32_t>(rng.below(nodes));
    }

    std::uint32_t cur = 0;
    while (rec.size() < budget) {
        rec.loadDep(700, ir_base + Addr{cur} * 96, 3);
        if (rng.chance(0.25)) {
            const auto sym = rng.zipf(nodes, 0.5);
            rec.load(701, symtab_base + sym * 32, 2);
        }
        if (rng.chance(0.1))
            rec.store(702, ir_base + Addr{cur} * 96 + 48, 1);
        cur = next[cur];
    }
    return finish("spec06_gcc", Suite::Spec06, rec);
}

Trace
specSphinx(double scale, std::uint64_t seed)
{
    // Acoustic scoring: streaming over gaussian tables with a gather over
    // active senone scores; stream-dominant with an irregular minority.
    Rng rng(seed);
    const std::size_t budget = recordBudget(scale);
    const std::size_t table = static_cast<std::size_t>(
        std::max(4.0 * scale, 1.0)) << 20;
    const auto senones = std::max<std::uint32_t>(
        static_cast<std::uint32_t>(50'000 * scale), 8192);

    const Addr table_base = base(0);
    const Addr senone_base = base(2);

    TraceRecorder rec(budget + 64);
    std::size_t i = 0;
    while (rec.size() < budget) {
        rec.load(800, table_base + (i * 8) % table, 1);
        if (i % 4 == 0) {
            const auto s = rng.zipf(senones, 0.6);
            rec.load(801, senone_base + s * 8, 1);
            rec.store(802, senone_base + s * 8, 0);
        }
        ++i;
    }
    return finish("spec06_sphinx3", Suite::Spec06, rec);
}

Trace
spec17Lbm(double scale, std::uint64_t seed)
{
    return stencilLike("spec17_lbm", Suite::Spec17, scale, seed,
                       768, 768);
}

Trace
spec17Roms(double scale, std::uint64_t seed)
{
    return streamLike("spec17_roms", Suite::Spec17, scale, seed,
                      4, std::size_t{3} << 20, 0.25);
}

Trace
spec17Fotonik(double scale, std::uint64_t seed)
{
    return stencilLike("spec17_fotonik3d", Suite::Spec17, scale, seed,
                       640, 640);
}

} // namespace kernels
} // namespace sl
