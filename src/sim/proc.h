#pragma once

// Coroutine process type for the discrete-event simulator.
//
// A Proc<T> is a lazily-started coroutine. Awaiting it starts the child and
// transfers control back to the parent (symmetric transfer) when the child
// reaches final_suspend. Root processes are started with Simulation::spawn,
// which drives them from the event queue and self-destroys the frame at
// completion. Exceptions propagate to the awaiter / join handle.
//
// All of this is strictly single-threaded: the simulator owns every resume.

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

namespace dcuda::sim {

template <typename T = void>
class Proc;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;  // parent awaiting this coroutine
  std::exception_ptr exception;
  // Set by Simulation::spawn for root coroutines; invoked with
  // on_final_arg and this promise at final suspend, before a detached frame
  // is destroyed, so it can take the process's exception. A plain function
  // pointer, so spawning a process allocates no closure.
  void (*on_final)(void*, PromiseBase&) = nullptr;
  void* on_final_arg = nullptr;
  bool detached = false;  // frame self-destroys at final suspend

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
      PromiseBase& p = h.promise();
      if (p.continuation) return p.continuation;
      if (p.on_final) p.on_final(p.on_final_arg, p);
      if (p.detached) h.destroy();
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;
  Proc<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct Promise<void> : PromiseBase {
  Proc<void> get_return_object();
  void return_void() noexcept {}
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Proc {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Proc() = default;
  explicit Proc(Handle h) : h_(h) {}
  Proc(Proc&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Proc& operator=(Proc&& o) noexcept {
    if (this != &o) {
      reset();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;
  ~Proc() { reset(); }

  bool valid() const { return static_cast<bool>(h_); }

  // Releases ownership of the handle (used by Simulation::spawn, which marks
  // the coroutine detached so the frame self-destroys at completion).
  Handle release() { return std::exchange(h_, nullptr); }

  struct Awaiter {
    Handle h;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
      h.promise().continuation = parent;
      return h;  // start the child now
    }
    T await_resume() {
      if (h.promise().exception) std::rethrow_exception(h.promise().exception);
      if constexpr (!std::is_void_v<T>) return std::move(*h.promise().value);
    }
  };

  // Awaiting a Proc consumes it; the wrapper keeps ownership so the frame is
  // destroyed when the (temporary) Proc goes out of scope in the caller.
  Awaiter operator co_await() & { return Awaiter{h_}; }
  Awaiter operator co_await() && { return Awaiter{h_}; }

 private:
  void reset() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  Handle h_;
};

namespace detail {

template <typename T>
Proc<T> Promise<T>::get_return_object() {
  return Proc<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Proc<void> Promise<void>::get_return_object() {
  return Proc<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace dcuda::sim
