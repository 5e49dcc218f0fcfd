#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "base/task_graph.h"
#include "base/task_runner.h"

namespace sitm::sched {

/// \brief Runs `body(begin, end)` over chunks partitioning [0, n) as a
/// flat task graph on `runner`.
///
/// The calling thread participates (via TaskRunner::Run), and the loop
/// runs inline when `runner` is null or there is only one chunk. Chunk
/// boundaries remain a function of (n, grain) only — never of the
/// worker count — so per-chunk initialization (e.g. seeding) stays
/// reproducible across worker counts.
///
/// The runner is the abstract base interface, so graph-describing
/// layers (storage, mining, query) can call these adapters while
/// holding only a sitm::TaskRunner*; concrete sched::Executor pointers
/// convert implicitly.
///
/// `grain` is the chunk length; 0 picks one yielding ~4 chunks per
/// participant. `name` labels the chunk tasks in the trace. The body
/// must not throw: an escaping exception aborts the process.
void ParallelFor(TaskRunner* runner, std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& body,
                 std::size_t grain = 0, const char* name = "for");

/// \brief Maps `fn(i)` over [0, n) on the runner, returning results in
/// index order regardless of execution order. T must be
/// default-constructible and movable.
///
/// Thread-safety: each index writes exactly one pre-sized slot of `out`
/// and no two chunks overlap, so the fill is race-free without locking —
/// the slot discipline every sched-facing caller (core/pipeline, mining
/// DistanceMatrix, storage block encoding, query/executor) relies on.
template <typename T, typename Fn>
std::vector<T> ParallelMap(TaskRunner* runner, std::size_t n, Fn&& fn,
                           std::size_t grain = 0, const char* name = "map") {
  std::vector<T> out(n);
  ParallelFor(
      runner, n,
      [&out, &fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
      },
      grain, name);
  return out;
}

}  // namespace sitm::sched
