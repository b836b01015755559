#pragma once

// Stackful cooperative fibers over ucontext. All simulated execution contexts
// (Linux threads in the ROS, Nautilus threads in the HRT, Scheme green
// threads' carrier) are fibers multiplexed on the host thread by the
// simulator's scheduler. This keeps the entire system deterministic.

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace mv {

class Fiber {
 public:
  enum class State { kReady, kRunning, kSuspended, kFinished };

  using Entry = std::function<void()>;

  // Stack must be large enough for the deepest simulated call chain; Scheme
  // evaluation recurses, so default generously.
  explicit Fiber(Entry entry, std::size_t stack_size = 1024 * 1024,
                 std::string name = {});
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Switch from the scheduler into this fiber; returns when the fiber yields
  // or finishes. Must be called from outside any fiber (the scheduler
  // context) or from another fiber's stack via Scheduler only.
  void resume();

  // Yield from inside this fiber back to whoever resumed it.
  static void yield();

  // The fiber currently executing, or nullptr when in the scheduler context.
  static Fiber* current() noexcept;

  // Bytes of the running fiber's stack left below the caller (unbounded
  // outside any fiber). Lets deep recursion fail with an error before it
  // overruns the stack.
  static std::size_t stack_headroom() noexcept;

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] bool finished() const noexcept {
    return state_ == State::kFinished;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  static void trampoline();

  Entry entry_;
  State state_ = State::kReady;
  std::string name_;
  std::vector<std::uint8_t> stack_;
  ucontext_t context_{};
  ucontext_t return_context_{};
  Fiber* prev_ = nullptr;  // fiber (or scheduler) we were resumed from
};

}  // namespace mv
