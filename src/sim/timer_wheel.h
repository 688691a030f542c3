// The timer band: an indexed 4-ary min-heap of re-armable timers.
//
// Every periodic and near-future timer in the simulator lives here: burst
// completions, guest ticks, host slices, bandwidth refills, probe windows
// and Every(). Each armed timer owns exactly one heap entry, a packed
// 128-bit key `(deadline << 32) | id`, so one integer compare orders
// (deadline, TimerId). Heap positions are tracked per id, which makes the
// common operations in-place:
//  - re-arming an armed timer re-keys its entry (one sift up or down);
//  - Cancel removes the entry by position;
//  - RunOne leaves the firing timer's entry in the heap while its callback
//    runs, so a self re-arm (a tick or a burst completion) is one sift-down;
//    the entry is removed only if the callback did not re-arm it.
// NextDeadlineAtMost is therefore an O(1) peek at the root.
//
// Determinism contract. The band is drained by the Simulation run loop
// *before* heap events at the same timestamp. Within the band, timers fire
// in (deadline, TimerId) order; TimerIds are assigned at Register() time and
// are stable across re-arms, so a construction-order registration sequence
// yields the same dispatch order whether or not any individual firing was
// elided in between (an elided firing schedules nothing and mutates
// nothing, so it cannot shift its neighbours). FIFO among same-deadline
// timers falls out of registration order the same way the event heap's
// sequence numbers provide it. The heap's internal shape is never
// observable: keys are unique, so the minimum is always the same timer.
#ifndef SRC_SIM_TIMER_WHEEL_H_
#define SRC_SIM_TIMER_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/base/perf_counters.h"
#include "src/base/time.h"
#include "src/sim/event_callback.h"

namespace vsched {

// Stable handle for a registered timer. 0 is never a valid id.
using TimerId = uint32_t;
inline constexpr TimerId kInvalidTimerId = 0;

class TimerWheel {
 public:
  TimerWheel() = default;
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Registers a timer slot with its callback. The callback is stored once
  // and reused across every re-arm, so steady-state arming allocates
  // nothing. Ids are recycled LIFO by Unregister, which keeps id sequences
  // identical between runs that register/unregister in the same order.
  TimerId Register(EventCallback fn);

  // Cancels (if armed) and retires the id for reuse. A callback may
  // unregister its own timer.
  void Unregister(TimerId id);

  // Arms (or re-arms) the timer to fire at `when`. `when` must not precede
  // the most recently dispatched deadline — the band never re-opens the
  // past. Arming at the currently dispatching timestamp is allowed; the
  // timer then fires this instant, after the timer being dispatched.
  void Arm(TimerId id, TimeNs when);

  // Arms each (id, when) pair in index order, exactly as N Arm() calls.
  void ArmBatch(const std::vector<std::pair<TimerId, TimeNs>>& items);

  // Disarms the timer. Returns true if it was armed. Inside its own
  // callback a timer is not armed (until it re-arms itself).
  bool Cancel(TimerId id);

  bool IsArmed(TimerId id) const {
    CheckId(id);
    return pos_[id] != kNoPos && id != firing_;
  }

  // Deadline of an armed timer; kTimeInfinity if unarmed.
  TimeNs ArmedAt(TimerId id) const { return IsArmed(id) ? At(id).deadline : kTimeInfinity; }

  // Returns the earliest pending deadline if it is <= `limit`, else
  // kTimeInfinity.
  TimeNs NextDeadlineAtMost(TimeNs limit) const {
    if (heap_.empty()) {
      return kTimeInfinity;
    }
    const TimeNs next = KeyDeadline(heap_[0]);
    return next <= limit ? next : kTimeInfinity;
  }

  // Runs the earliest timer, which must have deadline `when` as just
  // returned by NextDeadlineAtMost. The callback may re-arm, cancel,
  // register or unregister any timer, including its own.
  void RunOne(TimeNs when);

  // True if a timer re-armed *now* for deadline `when` (== the timestamp
  // currently being dispatched) would still fire in its natural band
  // position this instant: the band has not yet dispatched any timer at
  // `when` with an id >= `id`. Used by tickless re-arm logic to decide
  // between "fire in natural band position now" and "next grid point".
  bool StillFiresAt(TimerId id, TimeNs when) const {
    return !(fired_any_ && last_fire_when_ == when && last_fire_id_ >= id);
  }

  size_t ArmedCount() const { return armed_count_; }
  uint64_t fired_count() const { return fired_; }

  // Read-only invariant sweep (see src/base/audit.h): heap order, every
  // entry's id registered and its position back-pointer on its slot (and
  // every position pointing at its own entry), every key matching its
  // timer's deadline, the armed count in sync with the heap, and every
  // pending deadline at or after the last dispatched one (monotone
  // dispatch).
  void AuditVerify() const;

 private:
  friend struct AuditTestAccess;

  // (deadline << 32) | id: deadlines are non-negative and below
  // kTimeInfinity, so the unsigned order of keys is the (deadline, id) order.
  using Key = unsigned __int128;
  static constexpr uint32_t kNoPos = UINT32_MAX;

  struct Timer {
    EventCallback fn;
    TimeNs deadline = kTimeInfinity;
    bool registered = false;
  };

  static Key MakeKey(TimeNs when, TimerId id) {
    return (static_cast<Key>(static_cast<uint64_t>(when)) << 32) | id;
  }
  static TimerId KeyId(Key key) { return static_cast<TimerId>(key); }
  static TimeNs KeyDeadline(Key key) { return static_cast<TimeNs>(key >> 32); }

  void CheckId(TimerId id) const;
  Timer& At(TimerId id) { return timers_[id - 1]; }
  const Timer& At(TimerId id) const { return timers_[id - 1]; }

  // Index-tracking heap primitives: every time a key moves, its id's
  // position follows it.
  void Place(uint32_t pos, Key key) {
    heap_[pos] = key;
    pos_[KeyId(key)] = pos;
  }
  void SiftUp(uint32_t pos, Key key);
  void SiftDown(uint32_t pos, Key key);
  // Writes `key` into slot `pos` (whose current key it replaces) and
  // restores heap order in whichever direction it moved.
  void Rekey(uint32_t pos, Key key) {
    if (key < heap_[pos]) {
      SiftUp(pos, key);
    } else {
      SiftDown(pos, key);
    }
  }
  void RemoveAt(uint32_t pos);

  // deque: callbacks run in place out of a Timer slot, and a callback may
  // Register() new timers — slot addresses must survive growth.
  std::deque<Timer> timers_;
  std::vector<TimerId> free_ids_;  // LIFO recycling
  // Heap slot of each id's entry, kNoPos if it has none; indexed by id, so
  // slot 0 (kInvalidTimerId) is never used.
  std::vector<uint32_t> pos_ = {kNoPos};
  std::vector<Key> heap_;
  // The timer whose callback is running, while its entry is still the
  // leftover of that firing (cleared once the callback re-arms it).
  TimerId firing_ = kInvalidTimerId;
  size_t armed_count_ = 0;
  uint64_t fired_ = 0;
  bool fired_any_ = false;
  TimeNs last_fire_when_ = 0;
  TimerId last_fire_id_ = kInvalidTimerId;
  // Cached once, like EventQueue does: Current() is a TLS read behind an
  // init guard, too hot to re-resolve on every arm/fire.
  PerfCounters* counters_ = PerfCounters::Current();
};

}  // namespace vsched

#endif  // SRC_SIM_TIMER_WHEEL_H_
