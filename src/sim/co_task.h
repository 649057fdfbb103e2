// Minimal C++20 coroutine task for the event-driven protocol machine.
//
// CoTask<T> is the compiler-generated state machine behind each unlock
// attempt's stage coroutines (protocol/attempt_machine.h): every
// `co_await` boundary is a suspension point where the frame parks until
// an EventQueue event resumes it, so one thread multiplexes thousands of
// in-flight attempts (docs/architecture.md). Semantics:
//
//   * lazy start - the body does not run until the task is awaited (or
//     Resume() is called on a root task), so building a pipeline of
//     tasks performs no work;
//   * symmetric transfer - awaiting a child suspends the parent and
//     resumes the child in one hop; the child's final_suspend resumes
//     the parent the same way, so arbitrarily deep task chains use O(1)
//     host stack;
//   * exceptions are captured in the promise and rethrown at the await
//     (or Take()) site, mirroring normal call semantics.
//
// Single-threaded like everything else in the sim layer: a frame is
// only ever resumed by its own shard's queue.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

namespace wearlock::sim {

template <typename T>
class CoTask;

namespace co_detail {

struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> handle) const noexcept {
    // Hand control straight back to the awaiting parent; a root task
    // with no continuation returns to the resuming event callback.
    std::coroutine_handle<> continuation = handle.promise().continuation;
    return continuation ? continuation : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;

  std::suspend_always initial_suspend() const noexcept { return {}; }
  FinalAwaiter final_suspend() const noexcept { return {}; }
  void unhandled_exception() { error = std::current_exception(); }
};

}  // namespace co_detail

template <typename T = void>
class [[nodiscard]] CoTask {
 public:
  struct promise_type : co_detail::PromiseBase {
    std::optional<T> value;

    CoTask get_return_object() {
      return CoTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T result) { value.emplace(std::move(result)); }
  };

  CoTask() = default;
  explicit CoTask(std::coroutine_handle<promise_type> handle)
      : handle_(handle) {}
  CoTask(CoTask&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  CoTask& operator=(CoTask&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  CoTask(const CoTask&) = delete;
  CoTask& operator=(const CoTask&) = delete;
  ~CoTask() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ == nullptr || handle_.done(); }

  /// Start (or continue) a root task from non-coroutine code. Runs
  /// until the next suspension point or completion.
  void Resume() {
    if (handle_ != nullptr && !handle_.done()) handle_.resume();
  }

  /// Result of a completed task; rethrows a captured exception.
  T Take() {
    if (handle_.promise().error) {
      std::rethrow_exception(handle_.promise().error);
    }
    return std::move(*handle_.promise().value);
  }

  auto operator co_await() noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept {
        return handle == nullptr || handle.done();
      }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) const noexcept {
        handle.promise().continuation = awaiting;
        return handle;  // symmetric transfer into the child
      }
      T await_resume() const {
        if (handle.promise().error) {
          std::rethrow_exception(handle.promise().error);
        }
        return std::move(*handle.promise().value);
      }
    };
    return Awaiter{handle_};
  }

 private:
  void Destroy() {
    if (handle_ != nullptr) handle_.destroy();
    handle_ = nullptr;
  }

  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] CoTask<void> {
 public:
  struct promise_type : co_detail::PromiseBase {
    CoTask get_return_object() {
      return CoTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() const noexcept {}
  };

  CoTask() = default;
  explicit CoTask(std::coroutine_handle<promise_type> handle)
      : handle_(handle) {}
  CoTask(CoTask&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  CoTask& operator=(CoTask&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  CoTask(const CoTask&) = delete;
  CoTask& operator=(const CoTask&) = delete;
  ~CoTask() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ == nullptr || handle_.done(); }

  /// Type-erased handle of a root task, for scheduling its first
  /// resume on an event queue.
  std::coroutine_handle<> handle() const { return handle_; }

  void Resume() {
    if (handle_ != nullptr && !handle_.done()) handle_.resume();
  }

  /// Rethrows a captured exception from a completed task.
  void Take() {
    if (handle_.promise().error) {
      std::rethrow_exception(handle_.promise().error);
    }
  }

  auto operator co_await() noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept {
        return handle == nullptr || handle.done();
      }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) const noexcept {
        handle.promise().continuation = awaiting;
        return handle;
      }
      void await_resume() const {
        if (handle.promise().error) {
          std::rethrow_exception(handle.promise().error);
        }
      }
    };
    return Awaiter{handle_};
  }

 private:
  void Destroy() {
    if (handle_ != nullptr) handle_.destroy();
    handle_ = nullptr;
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace wearlock::sim
