#include "src/sim/engine.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace stratrec::sim {

namespace {

/// FNV-1a over the 8 little-endian bytes of `value`.
uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xFF;
    hash *= kFnv1aPrime;
  }
  return hash;
}

}  // namespace

void ScheduleDigest::Mix(uint64_t value) { hash_ = FnvMix(hash_, value); }

void ScheduleDigest::Mix(double value) {
  Mix(std::bit_cast<uint64_t>(value));
}

void ScheduleDigest::Mix(std::string_view text) {
  Mix(static_cast<uint64_t>(text.size()));
  hash_ = Fnv1a(text, hash_);
}

std::string ScheduleDigest::Hex(uint64_t digest) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[digest & 0xF];
    digest >>= 4;
  }
  return out;
}

uint64_t DeriveSeed(uint64_t root, std::string_view name) {
  // SplitMix64 spreads the seed, so two actors whose FNV hashes are close
  // still get uncorrelated streams.
  return SplitMix64(root ^ Fnv1a(name));
}

Rng& RngStreams::For(std::string_view actor) {
  auto it = streams_.find(actor);
  if (it == streams_.end()) {
    it = streams_.emplace(std::string(actor), Rng(DeriveSeed(root_, actor)))
             .first;
  }
  return it->second;
}

void EventQueue::Schedule(double time, Fn fn) {
  heap_.push(Event{std::max(time, now_), seq_++, std::move(fn)});
}

void EventQueue::ScheduleAfter(double delay, Fn fn) {
  Schedule(now_ + std::max(delay, 0.0), std::move(fn));
}

bool EventQueue::RunNext() {
  if (heap_.empty()) return false;
  // priority_queue::top is const; the event is moved out via the pop-copy
  // idiom (Fn is copyable, events are small).
  Event event = heap_.top();
  heap_.pop();
  now_ = event.time;
  ++fired_;
  event.fn();
  return true;
}

size_t EventQueue::RunUntil(double horizon) {
  size_t count = 0;
  while (!heap_.empty() && heap_.top().time <= horizon) {
    RunNext();
    ++count;
  }
  now_ = std::max(now_, horizon);
  return count;
}

}  // namespace stratrec::sim
