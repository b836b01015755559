#include "support/fiber.hpp"

#include <cassert>
#include <cstdlib>
#include <limits>

namespace mv {
namespace {

thread_local Fiber* g_current_fiber = nullptr;
thread_local Fiber* g_trampoline_target = nullptr;

}  // namespace

Fiber::Fiber(Entry entry, std::size_t stack_size, std::string name)
    : entry_(std::move(entry)), name_(std::move(name)), stack_(stack_size) {
  getcontext(&context_);
  context_.uc_stack.ss_sp = stack_.data();
  context_.uc_stack.ss_size = stack_.size();
  context_.uc_link = nullptr;  // we longjmp back manually in trampoline()
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
}

Fiber::~Fiber() {
  // A fiber may be destroyed while suspended (e.g. deliberately deadlocked
  // tasks at simulation teardown). Its stack is simply released; RAII state
  // living on that stack leaks by design — the simulation owns no resources
  // beyond host memory. Destroying a *running* fiber is a logic error.
  assert(state_ != State::kRunning);
}

void Fiber::trampoline() {
  Fiber* self = g_trampoline_target;
  self->entry_();
  self->state_ = State::kFinished;
  g_current_fiber = self->prev_;
  swapcontext(&self->context_, &self->return_context_);
  // Unreachable: a finished fiber is never resumed.
  std::abort();
}

void Fiber::resume() {
  assert(state_ == State::kReady || state_ == State::kSuspended);
  prev_ = g_current_fiber;
  g_current_fiber = this;
  if (state_ == State::kReady) g_trampoline_target = this;
  state_ = State::kRunning;
  swapcontext(&return_context_, &context_);
  // Back here after yield() or completion; g_current_fiber already restored.
}

void Fiber::yield() {
  Fiber* self = g_current_fiber;
  assert(self != nullptr && "yield() outside any fiber");
  self->state_ = State::kSuspended;
  g_current_fiber = self->prev_;
  swapcontext(&self->context_, &self->return_context_);
  // Resumed again.
  self->state_ = State::kRunning;
}

Fiber* Fiber::current() noexcept { return g_current_fiber; }

std::size_t Fiber::stack_headroom() noexcept {
  const Fiber* self = g_current_fiber;
  if (self == nullptr) return std::numeric_limits<std::size_t>::max();
  const auto sp = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  const auto floor = reinterpret_cast<std::uintptr_t>(self->stack_.data());
  return sp > floor ? sp - floor : 0;
}

}  // namespace mv
