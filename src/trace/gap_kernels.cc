/**
 * @file
 * Mini-GAP graph kernels (BFS, PageRank, CC, SSSP, BC, TC) executed over
 * synthetic power-law graphs, recording every memory reference.
 *
 * These carry the paper's GAP workloads: repeated traversals of irregular
 * but *stable* address sequences -- the pattern temporal prefetchers are
 * built for, and where Streamline's largest wins appear (Fig 9: +12.3pp on
 * the GAP irregular subset).
 */

#include "trace/kernels.hh"

#include <algorithm>
#include <cstddef>
#include <queue>
#include <vector>

#include "common/rng.hh"
#include "trace/graph.hh"

namespace sl
{
namespace kernels
{
namespace
{

constexpr Addr kRegion = 0x1000'0000;

Addr
gbase(unsigned region)
{
    return Addr{0x20'0000'0000} + region * kRegion;
}

struct GraphAddrs
{
    Addr offsets;   //!< 4B per node (+1)
    Addr neighbors; //!< 4B per edge
    Addr prop1;     //!< block-sized vertex records (see kPropStride)
    Addr prop2;     //!< second property array
};

/**
 * Vertex properties are modelled as block-sized records. At the paper's
 * full scale, graph vertex data spans tens of millions of blocks and each
 * block's per-iteration touch multiplicity is ~1, which is what makes
 * graph miss streams temporally predictable; block-sized records restore
 * that multiplicity on laptop-scale graphs (DESIGN.md §1).
 */
constexpr Addr kPropStride = 64;

GraphAddrs
layout()
{
    return {gbase(0), gbase(1), gbase(4), gbase(5)};
}

Graph
buildGraph(double scale, std::uint64_t seed)
{
    const auto nodes = std::max<std::uint32_t>(
        static_cast<std::uint32_t>(40'000 * scale), 4096);
    return makeGraph(GraphKind::PowerLaw, nodes, 3, seed);
}

/** Record the loads for scanning v's adjacency list; calls f(u) per edge. */
template <typename F>
void
scanNeighbors(TraceRecorder& rec, const Graph& g, const GraphAddrs& a,
              std::uint32_t v, std::size_t budget, F&& f)
{
    rec.load(900, a.offsets + Addr{v} * 4, 1);
    for (std::uint32_t i = g.offsets[v];
         i < g.offsets[v + 1] && rec.size() < budget; ++i) {
        rec.load(901, a.neighbors + Addr{i} * 4, 0);
        f(g.neighbors[i]);
    }
}

} // namespace

Trace
gapBfs(double scale, std::uint64_t seed)
{
    // Repeated BFS from the same source: each repetition visits vertices in
    // (nearly) the same order, so the parent-array miss stream repeats.
    const std::size_t budget = recordBudget(scale) * 3 / 2;
    TraceRecorder rec(budget + 64);
    Graph g = buildGraph(scale, seed);
    const auto a = layout();

    while (rec.size() < budget) {
        std::vector<std::int32_t> parent(g.numNodes, -1);
        std::queue<std::uint32_t> frontier;
        parent[0] = 0;
        frontier.push(0);
        while (!frontier.empty() && rec.size() < budget) {
            const std::uint32_t v = frontier.front();
            frontier.pop();
            scanNeighbors(rec, g, a, v, budget, [&](std::uint32_t u) {
                rec.load(902, a.prop1 + Addr{u} * kPropStride, 1);
                if (parent[u] < 0) {
                    parent[u] = static_cast<std::int32_t>(v);
                    rec.store(903, a.prop1 + Addr{u} * kPropStride, 1);
                    frontier.push(u);
                }
            });
        }
    }
    return finish("gap_bfs", Suite::Gap, rec);
}

Trace
gapPr(double scale, std::uint64_t seed)
{
    // PageRank power iterations: per iteration, every vertex gathers its
    // neighbours' scores -- the canonical repeating irregular gather.
    const std::size_t budget = recordBudget(scale) * 3 / 2;
    TraceRecorder rec(budget + 64);
    Graph g = buildGraph(scale, seed + 2);
    const auto a = layout();

    while (rec.size() < budget) {
        for (std::uint32_t v = 0; v < g.numNodes && rec.size() < budget;
             ++v) {
            scanNeighbors(rec, g, a, v, budget, [&](std::uint32_t u) {
                rec.load(910, a.prop1 + Addr{u} * kPropStride, 1);
            });
            rec.store(911, a.prop2 + Addr{v} * kPropStride, 1);
        }
    }
    return finish("gap_pr", Suite::Gap, rec);
}

Trace
gapCc(double scale, std::uint64_t seed)
{
    // Label propagation over the edge list until stable (capped): reads of
    // comp[u]/comp[v] repeat each sweep.
    const std::size_t budget = recordBudget(scale) * 3 / 2;
    TraceRecorder rec(budget + 64);
    Graph g = buildGraph(scale, seed + 3);
    const auto a = layout();

    std::vector<std::uint32_t> comp(g.numNodes);
    for (std::uint32_t v = 0; v < g.numNodes; ++v)
        comp[v] = v;

    while (rec.size() < budget) {
        for (std::uint32_t v = 0; v < g.numNodes && rec.size() < budget;
             ++v) {
            rec.load(920, a.prop1 + Addr{v} * kPropStride, 1);
            scanNeighbors(rec, g, a, v, budget, [&](std::uint32_t u) {
                rec.load(921, a.prop1 + Addr{u} * kPropStride, 1);
                if (comp[u] < comp[v]) {
                    comp[v] = comp[u];
                    rec.store(922, a.prop1 + Addr{v} * kPropStride, 1);
                }
            });
        }
    }
    return finish("gap_cc", Suite::Gap, rec);
}

Trace
gapSssp(double scale, std::uint64_t seed)
{
    // Bellman-Ford-style relaxation sweeps over the edge structure.
    const std::size_t budget = recordBudget(scale) * 3 / 2;
    TraceRecorder rec(budget + 64);
    Graph g = buildGraph(scale, seed + 4);
    const auto a = layout();

    std::vector<std::uint64_t> dist(g.numNodes, ~0ULL);
    dist[0] = 0;

    while (rec.size() < budget) {
        for (std::uint32_t v = 0; v < g.numNodes && rec.size() < budget;
             ++v) {
            rec.load(930, a.prop1 + Addr{v} * kPropStride, 1);
            if (dist[v] == ~0ULL)
                continue;
            scanNeighbors(rec, g, a, v, budget, [&](std::uint32_t u) {
                rec.load(931, a.prop1 + Addr{u} * kPropStride, 1);
                const std::uint64_t w = 1 + (u ^ v) % 16;
                if (dist[v] + w < dist[u]) {
                    dist[u] = dist[v] + w;
                    rec.store(932, a.prop1 + Addr{u} * kPropStride, 1);
                }
            });
        }
    }
    return finish("gap_sssp", Suite::Gap, rec);
}

Trace
gapBc(double scale, std::uint64_t seed)
{
    // Betweenness centrality: forward BFS then reverse accumulation, both
    // traversing the same vertex order -- back-to-back repeated streams.
    const std::size_t budget = recordBudget(scale) * 3 / 2;
    TraceRecorder rec(budget + 64);
    Graph g = buildGraph(scale, seed + 5);
    const auto a = layout();
    Rng rng(seed + 50);

    while (rec.size() < budget) {
        const auto src = static_cast<std::uint32_t>(rng.below(8));
        std::vector<std::int32_t> depth(g.numNodes, -1);
        std::vector<std::uint32_t> order;
        order.reserve(g.numNodes);
        std::queue<std::uint32_t> frontier;
        depth[src] = 0;
        frontier.push(src);
        while (!frontier.empty() && rec.size() < budget) {
            const std::uint32_t v = frontier.front();
            frontier.pop();
            order.push_back(v);
            scanNeighbors(rec, g, a, v, budget, [&](std::uint32_t u) {
                rec.load(940, a.prop1 + Addr{u} * kPropStride, 1);
                if (depth[u] < 0) {
                    depth[u] = depth[v] + 1;
                    rec.store(941, a.prop1 + Addr{u} * kPropStride, 1);
                    frontier.push(u);
                }
            });
        }
        // Reverse accumulation revisits the same adjacency structure.
        for (auto it = order.rbegin();
             it != order.rend() && rec.size() < budget; ++it) {
            scanNeighbors(rec, g, a, *it, budget, [&](std::uint32_t u) {
                rec.load(942, a.prop2 + Addr{u} * kPropStride, 1);
            });
            rec.store(943, a.prop2 + Addr{*it} * 8, 1);
        }
    }
    return finish("gap_bc", Suite::Gap, rec);
}

Trace
gapTc(double scale, std::uint64_t seed)
{
    // Triangle counting: adjacency-list intersection. Hub lists are
    // re-scanned constantly, producing heavy reuse of long streams.
    const auto tc_nodes = std::max<std::uint32_t>(
        static_cast<std::uint32_t>(12'000 * scale), 2048);
    const std::size_t budget = recordBudget(scale) * 3 / 2;
    TraceRecorder rec(budget + 64);
    Graph g = makeGraph(GraphKind::PowerLaw, tc_nodes, 20, seed + 6);
    const auto a = layout();

    while (rec.size() < budget) {
        for (std::uint32_t v = 0; v < g.numNodes && rec.size() < budget;
             ++v) {
            scanNeighbors(rec, g, a, v, budget, [&](std::uint32_t u) {
                if (u <= v)
                    return;
                // Intersect: scan a prefix of u's list.
                rec.load(950, a.offsets + Addr{u} * 4, 1);
                const std::uint32_t lim =
                    std::min(g.offsets[u] + 12, g.offsets[u + 1]);
                for (std::uint32_t i = g.offsets[u];
                     i < lim && rec.size() < budget; ++i)
                    rec.load(951, a.neighbors + Addr{i} * 4, 0);
            });
        }
    }
    return finish("gap_tc", Suite::Gap, rec);
}

} // namespace kernels
} // namespace sl
