#include "distance.h"

#include <algorithm>
#include <string>

#include "common/error.h"

namespace permuq::graph {

namespace {

/** Out of line so the BFS loop never builds the message. */
[[noreturn]] void
overflow_panic(std::int32_t source, std::int32_t v)
{
    throw PanicError("distance between vertices (" + std::to_string(source) +
                     "," + std::to_string(v) +
                     ") exceeds 16-bit storage");
}

/**
 * The one BFS behind every distance query: settles vertices outward
 * from @p source, writing each distance into @p dist, which must read
 * @p unseen at every vertex on entry. On return @p queue holds exactly
 * the vertices written, in settle order. Stops once @p target (>= 0)
 * is settled; every vertex no farther than @p target then holds its
 * exact distance, and every entry written is exact. A 16-bit row
 * panics on a finite distance >= @p unseen.
 */
template <typename Entry>
void
bfs_into(const FlatAdjacency& adj, std::int32_t source, std::int32_t target,
         Entry* dist, Entry unseen, std::vector<std::int32_t>& queue)
{
    queue.clear();
    dist[source] = 0;
    queue.push_back(source);
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const std::int32_t v = queue[head];
        if (v == target)
            return;
        const std::int32_t next = static_cast<std::int32_t>(dist[v]) + 1;
        for (const std::int32_t* w = adj.neighbors_begin(v);
             w != adj.neighbors_end(v); ++w) {
            if (dist[*w] != unseen)
                continue;
            if constexpr (sizeof(Entry) < sizeof(std::int32_t)) {
                if (next >= unseen)
                    overflow_panic(source, *w);
            }
            dist[*w] = static_cast<Entry>(next);
            queue.push_back(*w);
        }
    }
}

} // namespace

std::vector<std::int32_t>
bfs_distances(const Graph& g, std::int32_t source)
{
    fatal_unless(source >= 0 && source < g.num_vertices(),
                 "BFS source out of range");
    std::vector<std::int32_t> dist(
        static_cast<std::size_t>(g.num_vertices()), kUnreachable);
    std::vector<std::int32_t> queue;
    queue.reserve(dist.size());
    bfs_into(FlatAdjacency(g), source, /*target=*/-1, dist.data(),
             kUnreachable, queue);
    return dist;
}

DistanceMatrix::DistanceMatrix(const Graph& g)
    : n_(static_cast<std::size_t>(g.num_vertices()))
{
    table_.assign(n_ * n_, kRawUnreachable);
    const FlatAdjacency adj(g);
    std::vector<std::int32_t> queue;
    queue.reserve(n_);
    for (std::int32_t s = 0; s < g.num_vertices(); ++s)
        bfs_into(adj, s, /*target=*/-1,
                 table_.data() + static_cast<std::size_t>(s) * n_,
                 kRawUnreachable, queue);
}

std::int32_t
DistanceMatrix::diameter() const
{
    std::int32_t best = 0;
    for (std::size_t i = 0; i < n_ * n_; ++i)
        if (table_[i] != kRawUnreachable)
            best = std::max(best, static_cast<std::int32_t>(table_[i]));
    return best;
}

FlatAdjacency::FlatAdjacency(const Graph& g)
{
    const std::int32_t n = g.num_vertices();
    offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
    neighbors_.reserve(static_cast<std::size_t>(g.num_edges()) * 2);
    for (std::int32_t v = 0; v < n; ++v) {
        for (std::int32_t w : g.neighbors(v))
            neighbors_.push_back(w);
        offsets_[static_cast<std::size_t>(v) + 1] =
            static_cast<std::int32_t>(neighbors_.size());
    }
}

BfsOracle::BfsOracle(const FlatAdjacency& adj)
    : adj_(&adj),
      dist_(static_cast<std::size_t>(adj.num_vertices()), kUnreachable)
{
    queue_.reserve(dist_.size());
}

std::int32_t
BfsOracle::distance(std::int32_t source, std::int32_t target)
{
    fatal_unless(target >= 0 && target < adj_->num_vertices(),
                 "BFS target out of range");
    return distances_from(source, target)[static_cast<std::size_t>(target)];
}

const std::vector<std::int32_t>&
BfsOracle::distances_from(std::int32_t source, std::int32_t target)
{
    fatal_unless(source >= 0 && source < adj_->num_vertices(),
                 "BFS source out of range");
    // The previous query wrote exactly the vertices left in queue_.
    for (std::int32_t v : queue_)
        dist_[static_cast<std::size_t>(v)] = kUnreachable;
    bfs_into(*adj_, source, target, dist_.data(), kUnreachable, queue_);
    return dist_;
}

} // namespace permuq::graph
