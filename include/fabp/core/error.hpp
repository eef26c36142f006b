#pragma once
// Typed error surface for the Engine API boundary.
//
// The host runtime used to have exactly one failure mode: throw
// std::logic_error and die.  With the fault-tolerance layer the interesting
// outcomes are *recoverable* — a transfer retried, a tile re-scanned, the
// card degraded to software — and the unrecoverable ones need to say
// precisely what gave up.  `Expected<T>` is the non-throwing boundary
// (std::expected is C++23; this repo targets C++20, so a thin variant-based
// equivalent).  Callers that prefer exceptions call `value_or_throw`
// (`engine.align_sync(q, t).value_or_throw()`), which raises `FaultError`
// carrying the same typed payload.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace fabp::core {

enum class ErrorCode : std::uint8_t {
  None = 0,
  NoReference,       ///< align before upload_reference
  BadArgument,       ///< caller-side precondition violated
  TransferFailure,   ///< PCIe transfer failed on every allowed attempt
  Timeout,           ///< kernel watchdog deadline exceeded on every attempt
  IntegrityFailure,  ///< corruption detected and not repairable
  DeviceLost,        ///< health machine gave up and fallback is disabled
  InvalidConfig,     ///< rejected at Engine construction
  QueueFull,         ///< engine admission queue at capacity
  Cancelled,         ///< request cancelled before it started running
  DeadlineExceeded,  ///< request deadline passed before it started running
  ShuttingDown,      ///< engine destroyed with the request still queued
  Overloaded,        ///< shed at the service edge before admission
  UnknownDatabase,   ///< request named a database that is not resident
  TenantQuotaExceeded,  ///< tenant's queue-depth quota exhausted
};

inline const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::None: return "ok";
    case ErrorCode::NoReference: return "no-reference";
    case ErrorCode::BadArgument: return "bad-argument";
    case ErrorCode::TransferFailure: return "transfer-failure";
    case ErrorCode::Timeout: return "timeout";
    case ErrorCode::IntegrityFailure: return "integrity-failure";
    case ErrorCode::DeviceLost: return "device-lost";
    case ErrorCode::InvalidConfig: return "invalid-config";
    case ErrorCode::QueueFull: return "queue-full";
    case ErrorCode::Cancelled: return "cancelled";
    case ErrorCode::DeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::ShuttingDown: return "shutting-down";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::UnknownDatabase: return "unknown-database";
    case ErrorCode::TenantQuotaExceeded: return "tenant-quota-exceeded";
  }
  return "unknown";
}

struct Error {
  ErrorCode code = ErrorCode::None;
  std::string message;
  std::size_t attempts = 0;  ///< kernel attempts consumed before giving up
};

/// Exception form of Error, thrown by Expected::value_or_throw.
class FaultError : public std::runtime_error {
 public:
  explicit FaultError(Error error)
      : std::runtime_error{std::string{to_string(error.code)} + ": " +
                           error.message},
        error_{std::move(error)} {}

  const Error& error() const noexcept { return error_; }
  ErrorCode code() const noexcept { return error_.code; }

 private:
  Error error_;
};

/// Minimal std::expected stand-in: holds either a T or an Error.
template <typename T>
class Expected {
 public:
  Expected(T value) : state_{std::move(value)} {}                  // NOLINT
  Expected(Error error) : state_{std::move(error)} {}              // NOLINT

  bool has_value() const noexcept {
    return std::holds_alternative<T>(state_);
  }
  explicit operator bool() const noexcept { return has_value(); }

  T& value() & { return std::get<T>(state_); }
  const T& value() const& { return std::get<T>(state_); }
  T&& value() && { return std::get<T>(std::move(state_)); }

  T* operator->() { return &std::get<T>(state_); }
  const T* operator->() const { return &std::get<T>(state_); }
  T& operator*() { return std::get<T>(state_); }
  const T& operator*() const { return std::get<T>(state_); }

  const Error& error() const { return std::get<Error>(state_); }

  /// Value, or throw FaultError carrying the typed payload.
  T value_or_throw() && {
    if (!has_value()) throw FaultError{std::get<Error>(std::move(state_))};
    return std::get<T>(std::move(state_));
  }

 private:
  std::variant<T, Error> state_;
};

}  // namespace fabp::core
