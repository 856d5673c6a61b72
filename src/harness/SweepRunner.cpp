//===- harness/SweepRunner.cpp --------------------------------------------===//

#include "harness/SweepRunner.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

using namespace vmib;

unsigned vmib::defaultSweepThreads() {
  if (const char *Env = std::getenv("VMIB_THREADS")) {
    long N = std::strtol(Env, nullptr, 10);
    if (N >= 1)
      return static_cast<unsigned>(N);
  }
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : HW;
}

void vmib::parallelFor(size_t N, unsigned Threads,
                       const std::function<void(size_t)> &Job) {
  if (Threads > N)
    Threads = static_cast<unsigned>(N);

  std::exception_ptr FirstError;
  std::mutex ErrorMutex;
  std::atomic<size_t> Cursor{0};
  auto Worker = [&] {
    for (;;) {
      size_t I = Cursor.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        return;
      try {
        Job(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ErrorMutex);
        if (!FirstError)
          FirstError = std::current_exception();
      }
    }
  };

  // The calling thread is one of the workers.
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads; ++T)
    Pool.emplace_back(Worker);
  Worker();
  for (std::thread &T : Pool)
    T.join();

  if (FirstError)
    std::rethrow_exception(FirstError);
}
