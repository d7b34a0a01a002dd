#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

namespace dx {

// Shared state for one ParallelFor call. Lives on the calling thread's stack;
// ParallelFor does not return until remaining == 0, so worker references to it
// never dangle.
struct ThreadPool::LoopCtx {
  IndexFnRef fn;
  std::atomic<int> remaining;  // Chunks not yet finished (including chunk 0).
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::exception_ptr first_error;
  std::mutex error_mutex;

  LoopCtx(IndexFnRef f, int chunks) : fn(f), remaining(chunks) {}
};

// One contiguous chunk [begin, end) of a loop. Array-allocated on the calling
// thread's stack and linked into the pool's intrusive queue; never touched by
// the queue again once popped.
struct ThreadPool::ChunkTask {
  LoopCtx* ctx = nullptr;
  int64_t begin = 0;
  int64_t end = 0;
  ChunkTask* next = nullptr;
};

namespace {

// Innermost-first chain of ParallelFor frames live on this thread. A frame is
// pushed around every chunk execution (worker task or the caller's own chunk),
// so a kernel can ask both "am I inside pool P?" (re-entry → run serial) and
// "am I inside any region at all?" (gate for intra-op fan-out).
struct PoolFrame {
  const ThreadPool* pool;
  PoolFrame* prev;
};

thread_local PoolFrame* t_pool_frames = nullptr;

class ScopedPoolFrame {
 public:
  explicit ScopedPoolFrame(const ThreadPool* pool)
      : frame_{pool, t_pool_frames} {
    t_pool_frames = &frame_;
  }
  ~ScopedPoolFrame() { t_pool_frames = frame_.prev; }

  ScopedPoolFrame(const ScopedPoolFrame&) = delete;
  ScopedPoolFrame& operator=(const ScopedPoolFrame&) = delete;

 private:
  PoolFrame frame_;
};

bool InsidePool(const ThreadPool* pool) {
  for (const PoolFrame* f = t_pool_frames; f != nullptr; f = f->prev) {
    if (f->pool == pool) {
      return true;
    }
  }
  return false;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) {
      num_threads = 1;
    }
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::RunChunk(ChunkTask* task) {
  LoopCtx* ctx = task->ctx;
  try {
    for (int64_t i = task->begin; i < task->end; ++i) {
      ctx->fn(i);
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(ctx->error_mutex);
    if (!ctx->first_error) {
      ctx->first_error = std::current_exception();
    }
  }
  // Decrement under done_mutex: the caller may return (destroying ctx, which
  // lives on its stack) as soon as it sees remaining == 0, so the last
  // chunk must not touch ctx after releasing the lock.
  std::lock_guard<std::mutex> done_lock(ctx->done_mutex);
  if (ctx->remaining.fetch_sub(1) == 1) {
    ctx->done_cv.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    ChunkTask* task = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || queue_head_ != nullptr; });
      if (stop_ && queue_head_ == nullptr) {
        return;
      }
      task = queue_head_;
      queue_head_ = task->next;
      if (queue_head_ == nullptr) {
        queue_tail_ = nullptr;
      }
    }
    ScopedPoolFrame frame(this);
    RunChunk(task);
  }
}

void ThreadPool::HelpWithLoop(LoopCtx* ctx) {
  for (;;) {
    ChunkTask* task = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ChunkTask** link = &queue_head_;
      while (*link != nullptr && (*link)->ctx != ctx) {
        link = &(*link)->next;
      }
      if (*link == nullptr) {
        return;  // No chunks of this loop left in the queue.
      }
      task = *link;
      *link = task->next;
      if (queue_tail_ == task) {
        if (queue_head_ == nullptr) {
          queue_tail_ = nullptr;
        } else {
          ChunkTask* t = queue_head_;
          while (t->next != nullptr) {
            t = t->next;
          }
          queue_tail_ = t;
        }
      }
    }
    RunChunk(task);
  }
}

void ThreadPool::ParallelFor(int64_t n, IndexFnRef fn) {
  if (n <= 0) {
    return;
  }
  const int threads = num_threads();
  // Even a 1-thread pool gives 2-way parallelism (worker + calling thread);
  // a threadless pool degenerates to the serial loop, and so does a
  // re-entrant call from a task already running inside this pool — its
  // sibling chunks may be blocked waiting for us, so queuing more work for
  // them to pick up could deadlock.
  if (n == 1 || threads < 1 || InsidePool(this)) {
    for (int64_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }

  // Keep the chunk array small and on the stack: beyond ~32-way splitting the
  // extra chunks add queue traffic without improving balance for the
  // contiguous loops we run.
  constexpr int kMaxChunks = 32;
  const int chunks =
      static_cast<int>(std::min<int64_t>(n, std::min(threads + 1, kMaxChunks)));
  const int64_t per_chunk = (n + chunks - 1) / chunks;

  LoopCtx ctx(fn, chunks);
  ChunkTask tasks[kMaxChunks];
  for (int c = 0; c < chunks; ++c) {
    tasks[c].ctx = &ctx;
    tasks[c].begin = static_cast<int64_t>(c) * per_chunk;
    tasks[c].end = std::min<int64_t>(n, tasks[c].begin + per_chunk);
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int c = 1; c < chunks; ++c) {
      tasks[c].next = nullptr;
      if (queue_tail_ == nullptr) {
        queue_head_ = queue_tail_ = &tasks[c];
      } else {
        queue_tail_->next = &tasks[c];
        queue_tail_ = &tasks[c];
      }
    }
  }
  cv_.notify_all();

  {
    // The calling thread takes the first chunk, then helps drain any of its
    // own chunks still queued (workers may be busy with other callers'
    // loops — the daemon shares one pool across campaigns).
    ScopedPoolFrame frame(this);
    RunChunk(&tasks[0]);
    HelpWithLoop(&ctx);
  }

  std::unique_lock<std::mutex> lock(ctx.done_mutex);
  ctx.done_cv.wait(lock, [&] { return ctx.remaining.load() == 0; });

  if (ctx.first_error) {
    std::rethrow_exception(ctx.first_error);
  }
}

bool ThreadPool::InParallelRegion() { return t_pool_frames != nullptr; }

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = [] {
    int threads = 0;
    if (const char* env = std::getenv("DEEPXPLORE_THREADS")) {
      threads = std::atoi(env);
    }
    return new ThreadPool(threads);
  }();
  return *pool;
}

void ParallelFor(int64_t n, IndexFnRef fn) {
  ThreadPool::Global().ParallelFor(n, fn);
}

bool IntraOpParallelismAvailable() {
  return ThreadPool::Global().num_threads() >= 2 &&
         !ThreadPool::InParallelRegion();
}

}  // namespace dx
