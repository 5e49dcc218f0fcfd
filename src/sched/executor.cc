#include "sched/executor.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>

namespace sitm::sched {

namespace {

/// Identifies the current thread as worker `index` of `executor`, so a
/// nested Run() pushes to (and pops from) its own deque instead of the
/// injection queue.
struct WorkerIdentity {
  Executor* executor = nullptr;
  std::size_t index = 0;
};
thread_local WorkerIdentity tls_worker;

}  // namespace

/// Shared state of one Run(): the moved-in graph plus per-node countdown
/// and completion accounting. Held by shared_ptr from every queued Task
/// so late-drained queue entries always find live state.
struct Executor::RunState {
  explicit RunState(std::vector<TaskGraph::Node> graph_nodes)
      : nodes(std::move(graph_nodes)),
        pending(nodes.size()),
        errors(nodes.size()),
        remaining(nodes.size()) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      pending[i].store(nodes[i].dependencies, std::memory_order_relaxed);
    }
  }

  const std::vector<TaskGraph::Node> nodes;
  /// Unmet-dependency countdown per node; the thread that drops one to
  /// zero owns scheduling it.
  std::vector<std::atomic<std::size_t>> pending;
  /// One slot per node, written only by the thread that executed it.
  /// The caller reads them only after observing remaining == 0 under
  /// `mutex`, which orders every slot write before the read.
  std::vector<std::string> errors;

  Mutex mutex;
  CondVar done;
  /// Nodes not yet finished executing.
  std::size_t remaining SITM_GUARDED_BY(mutex);
  /// Bumped whenever this run's tasks are pushed; the waiting caller
  /// captures it before scanning for work (same lost-wakeup protocol as
  /// Executor::work_epoch_).
  std::uint64_t ready_epoch SITM_GUARDED_BY(mutex) = 0;

  /// Detached (Submit) runs: no caller waits, so the last-finishing
  /// task invokes `on_done` and retires the run itself. Both fields are
  /// set before the run's first task is seeded and read only by the
  /// thread that observed remaining == 0 under `mutex`, which orders
  /// the writes — no extra guard needed.
  bool detached = false;
  std::function<void(Status)> on_done;
};

namespace {

/// The lowest-id task failure of a finished run (OK when none). Safe to
/// call only after observing remaining == 0 under the run's mutex: that
/// read orders every error-slot write before these reads.
Status LowestIdFailure(const std::vector<TaskGraph::Node>& nodes,
                       const std::vector<std::string>& errors) {
  for (TaskId id = 0; id < nodes.size(); ++id) {
    if (!errors[id].empty()) {
      return task_internal::TaskFailure(id, nodes[id].name, errors[id]);
    }
  }
  return Status::OK();
}

}  // namespace

Executor::Executor(std::size_t num_workers)
    : epoch_(std::chrono::steady_clock::now()),
      trace_((num_workers == 0 ? DefaultConcurrency() : num_workers) + 1) {
  if (num_workers == 0) num_workers = DefaultConcurrency();
  states_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    states_.push_back(std::make_unique<WorkerState>());
  }
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Executor::~Executor() { Shutdown(); }

std::size_t Executor::DefaultConcurrency() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::int64_t Executor::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Executor::Shutdown() {
  bool join = false;
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
    work_available_.NotifyAll();
    while (active_runs_ != 0) runs_idle_.Wait(lock);
    if (!joined_) {
      joined_ = true;
      join = true;
    }
  }
  if (join) {
    for (std::thread& worker : workers_) worker.join();
  }
}

Status Executor::Run(TaskGraph graph) {
  SITM_RETURN_IF_ERROR(graph.Validate());
  if (graph.nodes().empty()) return Status::OK();

  // Post-shutdown runs execute inline on the caller rather than being
  // dropped or parked forever.
  bool inline_run = false;
  {
    MutexLock lock(mutex_);
    if (shutdown_) {
      inline_run = true;
    } else {
      ++active_runs_;
    }
  }
  if (inline_run) return RunGraphInline(std::move(graph));

  auto run = std::make_shared<RunState>(graph.ReleaseNodes());
  const std::size_t num_tasks = run->nodes.size();

  // Seed the initially-ready tasks in id order through the injection
  // queue; workers wake on the epoch bump and start pulling while the
  // caller joins in below.
  {
    MutexLock lock(mutex_);
    for (TaskId id = 0; id < num_tasks; ++id) {
      if (run->pending[id].load(std::memory_order_relaxed) == 0) {
        injected_.push_back(Task{run, id});
      }
    }
    ++work_epoch_;
    work_available_.NotifyAll();
  }

  const std::size_t lane = tls_worker.executor == this
                               ? tls_worker.index
                               : states_.size();  // shared external lane
  for (;;) {
    std::uint64_t seen_ready;
    {
      MutexLock lock(run->mutex);
      if (run->remaining == 0) break;
      seen_ready = run->ready_epoch;
    }
    Task task;
    if (TryAcquire(lane, &task)) {
      // Any task helps: executing another run's work while ours is all
      // in flight keeps the caller's core busy and is bounded by that
      // run's own completion.
      ExecuteTask(std::move(task), lane);
      continue;
    }
    MutexLock lock(run->mutex);
    while (run->remaining != 0 && run->ready_epoch == seen_ready) {
      run->done.Wait(lock);
    }
    if (run->remaining == 0) break;
  }

  Status status = LowestIdFailure(run->nodes, run->errors);

  {
    MutexLock lock(mutex_);
    if (--active_runs_ == 0) {
      runs_idle_.NotifyAll();
      // Sleeping workers gate their exit on (shutdown_ && no active
      // runs); a shutdown that raced this run needs them re-woken.
      if (shutdown_) work_available_.NotifyAll();
    }
  }
  return status;
}

void Executor::Submit(TaskGraph graph, std::function<void(Status)> done) {
  Status valid = graph.Validate();
  if (!valid.ok() || graph.nodes().empty()) {
    // Nothing to schedule: report the validation error (or OK for an
    // empty graph) synchronously, as the base default would.
    if (done) done(std::move(valid));
    return;
  }

  // Post-shutdown submissions degrade to the pinned inline form, like
  // Run(): executed on the caller, callback before returning.
  bool inline_run = false;
  {
    MutexLock lock(mutex_);
    if (shutdown_) {
      inline_run = true;
    } else {
      ++active_runs_;
    }
  }
  if (inline_run) {
    Status status = RunGraphInline(std::move(graph));
    if (done) done(std::move(status));
    return;
  }

  auto run = std::make_shared<RunState>(graph.ReleaseNodes());
  run->detached = true;
  run->on_done = std::move(done);
  const std::size_t num_tasks = run->nodes.size();

  // Seed the initially-ready tasks and return: no caller participates,
  // so the workers own the whole run — including the completion
  // callback (ExecuteTask -> FinishDetachedRun).
  MutexLock lock(mutex_);
  for (TaskId id = 0; id < num_tasks; ++id) {
    if (run->pending[id].load(std::memory_order_relaxed) == 0) {
      injected_.push_back(Task{run, id});
    }
  }
  ++work_epoch_;
  work_available_.NotifyAll();
}

void Executor::FinishDetachedRun(RunState& run) {
  // Off every executor lock: the callback may take locks of its own
  // (e.g. a segment store's manifest mutex), and must never nest under
  // run or executor state.
  if (run.on_done) {
    run.on_done(LowestIdFailure(run.nodes, run.errors));
  }
  MutexLock lock(mutex_);
  if (--active_runs_ == 0) {
    runs_idle_.NotifyAll();
    // Shutdown() drains detached runs exactly like waited ones; wake
    // its waiters (and exit-gated workers) once the last run retires.
    if (shutdown_) work_available_.NotifyAll();
  }
}

void Executor::WorkerLoop(std::size_t index) {
  tls_worker.executor = this;
  tls_worker.index = index;
  for (;;) {
    std::uint64_t seen;
    {
      MutexLock lock(mutex_);
      if (shutdown_ && active_runs_ == 0) return;
      seen = work_epoch_;
    }
    Task task;
    if (TryAcquire(index, &task)) {
      ExecuteTask(std::move(task), index);
      continue;
    }
    MutexLock lock(mutex_);
    while (!(shutdown_ && active_runs_ == 0) && work_epoch_ == seen) {
      work_available_.Wait(lock);
    }
    if (shutdown_ && active_runs_ == 0) return;
  }
}

bool Executor::TryAcquire(std::size_t lane, Task* out) {
  const std::size_t workers = states_.size();
  if (lane < workers) {
    WorkerState& own = *states_[lane];
    MutexLock lock(own.mutex);
    if (!own.deque.empty()) {
      *out = std::move(own.deque.back());
      own.deque.pop_back();
      return true;
    }
  }
  {
    MutexLock lock(mutex_);
    if (!injected_.empty()) {
      *out = std::move(injected_.front());
      injected_.pop_front();
      return true;
    }
  }
  for (std::size_t k = 1; k <= workers; ++k) {
    const std::size_t victim = (lane + k) % workers;
    if (victim == lane) continue;
    WorkerState& victim_state = *states_[victim];
    bool stolen = false;
    {
      MutexLock lock(victim_state.mutex);
      if (!victim_state.deque.empty()) {
        *out = std::move(victim_state.deque.front());
        victim_state.deque.pop_front();
        stolen = true;
      }
    }
    if (stolen) {
      trace_.RecordSteal(lane, out->run->nodes[out->id].name, NowNs());
      return true;
    }
  }
  return false;
}

void Executor::ExecuteTask(Task task, std::size_t lane) {
  RunState& run = *task.run;
  const TaskGraph::Node& node = run.nodes[task.id];

  const std::int64_t begin_ns = NowNs();
  if (node.fn) {
    try {
      node.fn();
    } catch (...) {
      run.errors[task.id] = task_internal::DescribeCurrentException();
    }
  }
  trace_.RecordTask(lane, node.name, begin_ns, NowNs());

  std::vector<Task> ready;
  for (const TaskId succ : node.successors) {
    if (run.pending[succ].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ready.push_back(Task{task.run, succ});
    }
  }
  if (!ready.empty()) PushReady(std::move(ready), lane);

  const bool pushed = !node.successors.empty();
  bool finished = false;
  {
    MutexLock lock(run.mutex);
    --run.remaining;
    if (pushed) ++run.ready_epoch;
    // Wake the run's waiting caller on completion, and after any push so
    // it re-scans for newly stealable work instead of idling.
    if (run.remaining == 0 || pushed) run.done.NotifyAll();
    finished = run.remaining == 0;
  }
  // Exactly one task observes remaining hit zero; for a detached run it
  // owns invoking the callback and retiring the run.
  if (finished && run.detached) FinishDetachedRun(run);
}

void Executor::PushReady(std::vector<Task> tasks, std::size_t lane) {
  const std::size_t workers = states_.size();
  if (lane < workers) {
    MutexLock lock(states_[lane]->mutex);
    for (Task& task : tasks) {
      states_[lane]->deque.push_back(std::move(task));
    }
  } else {
    MutexLock lock(mutex_);
    for (Task& task : tasks) injected_.push_back(std::move(task));
  }
  MutexLock lock(mutex_);
  ++work_epoch_;
  work_available_.NotifyAll();
}

}  // namespace sitm::sched
