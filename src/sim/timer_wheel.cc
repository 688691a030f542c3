#include "src/sim/timer_wheel.h"

#include <utility>

#include "src/base/audit.h"
#include "src/base/check.h"
#include "src/base/perf_counters.h"

namespace vsched {

void TimerWheel::CheckId(TimerId id) const {
  VSCHED_CHECK(id != kInvalidTimerId && id <= timers_.size());
}

TimerId TimerWheel::Register(EventCallback fn) {
  TimerId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    timers_.emplace_back();
    pos_.push_back(kNoPos);
    // One entry per timer at most, so growing the heap with the timer table
    // means arming never allocates.
    if (heap_.capacity() < timers_.size()) {
      heap_.reserve(2 * timers_.size());
    }
    id = static_cast<TimerId>(timers_.size());
  }
  Timer& t = At(id);
  t.fn = std::move(fn);
  t.deadline = kTimeInfinity;
  t.registered = true;
  VSCHED_CHECK(t.fn);
  return id;
}

void TimerWheel::Unregister(TimerId id) {
  CheckId(id);
  Timer& t = At(id);
  VSCHED_CHECK_MSG(t.registered, "unregistering a timer twice");
  // From its own callback, the firing's leftover entry stays until RunOne
  // drops it, or until a re-registration of this id re-arms it.
  Cancel(id);
  t.registered = false;
  t.fn = EventCallback();
  free_ids_.push_back(id);
}

void TimerWheel::Arm(TimerId id, TimeNs when) {
  CheckId(id);
  Timer& t = At(id);
  VSCHED_CHECK_MSG(t.registered, "arming an unregistered timer");
  VSCHED_CHECK(when >= 0 && when < kTimeInfinity);
  // The band never re-opens the past: dispatch order must stay monotone.
  VSCHED_CHECK_MSG(!fired_any_ || when >= last_fire_when_,
                   "timer armed before the last dispatched deadline");
  ++counters_->timer_arms;
  t.deadline = when;
  const Key key = MakeKey(when, id);
  const uint32_t pos = pos_[id];
  if (pos == kNoPos) {
    ++armed_count_;
    heap_.push_back(key);
    SiftUp(static_cast<uint32_t>(heap_.size() - 1), key);
    return;
  }
  if (id == firing_) {
    // Self re-arm from the callback: reuse the firing's entry.
    firing_ = kInvalidTimerId;
    ++armed_count_;
  } else {
    // Re-arming an armed timer is a cancel plus an arm, and counts as both.
    ++counters_->timer_cancels;
  }
  Rekey(pos, key);
}

void TimerWheel::ArmBatch(const std::vector<std::pair<TimerId, TimeNs>>& items) {
  for (const auto& [id, when] : items) {
    Arm(id, when);
  }
}

bool TimerWheel::Cancel(TimerId id) {
  if (!IsArmed(id)) {
    return false;
  }
  RemoveAt(pos_[id]);
  --armed_count_;
  ++counters_->timer_cancels;
  return true;
}

void TimerWheel::SiftUp(uint32_t pos, Key key) {
  while (pos > 0) {
    const uint32_t parent = (pos - 1) / 4;
    const Key parent_key = heap_[parent];
    if (parent_key < key) {
      break;
    }
    Place(pos, parent_key);
    pos = parent;
  }
  Place(pos, key);
}

void TimerWheel::SiftDown(uint32_t pos, Key key) {
  const uint32_t n = static_cast<uint32_t>(heap_.size());
  for (;;) {
    const uint32_t first = 4 * pos + 1;
    if (first >= n) {
      break;
    }
    uint32_t best = first;
    Key best_key = heap_[first];
    if (first + 3 < n) {
      // A full family: pick the least of four without data-dependent
      // branches (a tournament of two pairs).
      const Key k1 = heap_[first + 1];
      const Key k2 = heap_[first + 2];
      const Key k3 = heap_[first + 3];
      const bool take1 = k1 < best_key;
      const Key low01 = take1 ? k1 : best_key;
      const uint32_t at01 = first + static_cast<uint32_t>(take1);
      const bool take3 = k3 < k2;
      const Key low23 = take3 ? k3 : k2;
      const uint32_t at23 = first + 2 + static_cast<uint32_t>(take3);
      const bool take23 = low23 < low01;
      best_key = take23 ? low23 : low01;
      best = take23 ? at23 : at01;
    } else {
      for (uint32_t c = first + 1; c < n; ++c) {
        if (heap_[c] < best_key) {
          best_key = heap_[c];
          best = c;
        }
      }
    }
    if (key < best_key) {
      break;
    }
    Place(pos, best_key);
    pos = best;
  }
  Place(pos, key);
}

void TimerWheel::RemoveAt(uint32_t pos) {
  pos_[KeyId(heap_[pos])] = kNoPos;
  const Key last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    Rekey(pos, last);
  }
}

void TimerWheel::RunOne(TimeNs when) {
  VSCHED_CHECK_MSG(!heap_.empty() && KeyDeadline(heap_[0]) == when,
                   "TimerWheel::RunOne deadline mismatch");
  const TimerId id = KeyId(heap_[0]);
  // The timer is idle from here on, but its entry stays at the root while
  // the callback runs: a self re-arm then re-keys it in place.
  firing_ = id;
  --armed_count_;
  fired_any_ = true;
  last_fire_when_ = when;
  last_fire_id_ = id;
  ++fired_;
  ++counters_->timer_fires;
  // Runs in place out of the (address-stable) slot.
  At(id).fn();
  if (firing_ == id) {
    // Not re-armed (perhaps unregistered): drop the leftover entry.
    firing_ = kInvalidTimerId;
    RemoveAt(pos_[id]);
  }
}

void TimerWheel::AuditVerify() const {
  if (!audit::Enabled()) {
    return;
  }
  VSCHED_AUDIT_CHECK(pos_.size() == timers_.size() + 1,
                     "timer band: position index size disagrees with the timer table");
  size_t armed = 0;
  for (uint32_t slot = 0; slot < heap_.size(); ++slot) {
    const Key key = heap_[slot];
    VSCHED_AUDIT_CHECK(slot == 0 || !(key < heap_[(slot - 1) / 4]),
                       "timer band: heap order violated");
    const TimerId id = KeyId(key);
    const bool valid_id = id != kInvalidTimerId && id <= timers_.size() && At(id).registered;
    VSCHED_AUDIT_CHECK(valid_id, "timer band: heap holds an invalid or unregistered timer id");
    if (!valid_id) {
      continue;
    }
    VSCHED_AUDIT_CHECK(pos_[id] != kNoPos,
                       "timer band: heap holds a timer its position index marks idle");
    VSCHED_AUDIT_CHECK(pos_[id] == kNoPos || pos_[id] == slot,
                       "timer band: position back-pointer disagrees with heap slot");
    VSCHED_AUDIT_CHECK(KeyDeadline(key) == At(id).deadline,
                       "timer band: heap key disagrees with its timer's deadline");
    VSCHED_AUDIT_CHECK(!fired_any_ || KeyDeadline(key) >= last_fire_when_,
                       "timer band: armed deadline precedes the last dispatch");
    if (id != firing_) {
      ++armed;
    }
  }
  for (TimerId id = 1; id < pos_.size(); ++id) {
    const uint32_t slot = pos_[id];
    VSCHED_AUDIT_CHECK(slot == kNoPos || (slot < heap_.size() && KeyId(heap_[slot]) == id),
                       "timer band: position points at another timer's entry");
  }
  VSCHED_AUDIT_CHECK(armed == armed_count_,
                     "timer band: armed count out of sync (timer lost or duplicated)");
}

}  // namespace vsched
