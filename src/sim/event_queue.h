// The discrete-event core: a cancellable, deterministically-ordered queue of
// timestamped callbacks.
//
// Events at equal timestamps fire in scheduling order (FIFO), which makes
// whole-simulation runs reproducible. Storage is a slab-allocated pool of
// event nodes recycled through a free list, indexed by a 4-ary min-heap that
// tracks each node's heap position — so cancellation is a true O(log n)
// removal (no lazy-deletion skimming), scheduling in steady state performs
// zero allocations, and Empty()/NextEventTime() are const reads. Event ids
// are generation-tagged: a recycled slot invalidates stale handles.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/base/perf_counters.h"
#include "src/base/time.h"
#include "src/sim/event_callback.h"

namespace vsched {

using EventFn = EventCallback;

// Opaque handle for cancellation. Default-constructed ids are invalid.
// Encodes (pool slot + 1) in the high 32 bits and the slot's generation in
// the low 32, so a handle to an executed/cancelled event stays invalid even
// after the slot is recycled.
class EventId {
 public:
  EventId() = default;

  bool valid() const { return raw_ != 0; }
  void Invalidate() { raw_ = 0; }

  friend bool operator==(EventId a, EventId b) { return a.raw_ == b.raw_; }

 private:
  friend class EventQueue;
  explicit EventId(uint64_t raw) : raw_(raw) {}
  uint64_t raw_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Current simulated time. Advances only inside RunOne().
  TimeNs now() const { return now_; }

  // Schedules `fn` at absolute time `when` (must be >= now()). Accepts any
  // void() callable; it is constructed directly inside the pool node, so the
  // common path does no intermediate moves and no allocation.
  template <typename F>
  EventId ScheduleAt(TimeNs when, F&& fn) {
    uint32_t index = BeginSchedule(when);
    Node& node = NodeAt(index);
    if constexpr (std::is_same_v<std::decay_t<F>, EventCallback>) {
      node.fn = std::forward<F>(fn);
    } else {
      node.fn.Emplace(std::forward<F>(fn));
    }
    return FinishSchedule(when, index);
  }

  // Schedules `fn` `delay` ns from now.
  template <typename F>
  EventId ScheduleAfter(TimeNs delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Bulk scheduling: equivalent to `for i: ScheduleAt(whens[i], make_fn(i))`
  // in index order — same node allocation, same sequence numbering, and
  // therefore the same dispatch order, because events fire in (when, seq)
  // order regardless of the heap's internal shape. The heap invariant is
  // restored once at the end (sift-up per element for small batches, a full
  // Floyd repair when the batch dominates the heap) instead of per insert.
  // Handles are deliberately not returned: batch-posted events cannot be
  // individually cancelled — use ScheduleAt when you need an EventId.
  template <typename MakeFn>
  void PostBatch(const std::vector<TimeNs>& whens, MakeFn&& make_fn) {
    for (size_t i = 0; i < whens.size(); ++i) {
      uint32_t index = BeginSchedule(whens[i]);
      NodeAt(index).fn.Emplace(make_fn(i));
      AppendUnsifted(whens[i], index);
    }
    RestoreHeap(whens.size());
  }

  // Cancels a pending event. Returns true if the event was still pending.
  bool Cancel(EventId id);

  // True when no live events remain.
  bool Empty() const { return heap_.empty(); }

  // Timestamp of the next live event, or kTimeInfinity when empty.
  TimeNs NextEventTime() const { return heap_.empty() ? kTimeInfinity : heap_[0].when; }

  // Pops and runs the next live event, advancing now(). Returns false when
  // the queue is empty.
  bool RunOne();

  // Runs events with timestamp <= deadline, then advances now() to deadline.
  void RunUntil(TimeNs deadline);

  // Moves the clock forward to `t` without running anything. `t` must not
  // skip a pending event. Used by Simulation's interleaved run loop to hand
  // the clock to the timer band between heap dispatches; no-op if t <= now.
  void AdvanceClockTo(TimeNs t) {
    if (t <= now_) {
      return;
    }
    VSCHED_CHECK_MSG(t <= NextEventTime(), "AdvanceClockTo would skip a pending event");
    now_ = t;
  }

  // Number of live (non-cancelled) pending events.
  size_t PendingCount() const { return heap_.size(); }

  // Total events executed so far (for perf accounting).
  uint64_t executed_count() const { return executed_; }

  // Full structural self-check, reported through src/base/audit.h: heap
  // ordering, heap_pos back-pointers, slab/free-list bookkeeping, and seq
  // uniqueness. Called automatically after every mutation while auditing is
  // enabled; safe (and O(capacity)) to call directly at any time.
  void AuditVerify() const;

 private:
  // Deliberate-corruption backdoor for the audit tests (tests/audit/); never
  // referenced by the library itself.
  friend struct AuditTestAccess;
  static constexpr uint32_t kSlabBits = 8;
  static constexpr uint32_t kSlabSize = 1u << kSlabBits;  // nodes per slab

  // One pooled event. `heap_pos` is -1 while the node sits on the free list;
  // `generation` advances on every release so stale EventIds miss.
  struct Node {
    EventCallback fn;
    uint32_t generation = 1;
    int32_t heap_pos = -1;
  };

  struct Slab {
    Node nodes[kSlabSize];
  };

  struct HeapSlot {
    TimeNs when;
    uint64_t seq;
    uint32_t node;
  };

  static bool Before(const HeapSlot& a, const HeapSlot& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  Node& NodeAt(uint32_t index) {
    return slabs_[index >> kSlabBits]->nodes[index & (kSlabSize - 1)];
  }
  const Node& NodeAt(uint32_t index) const {
    return slabs_[index >> kSlabBits]->nodes[index & (kSlabSize - 1)];
  }

  uint32_t AllocNode();
  void ReleaseNode(uint32_t index);

  // The non-template halves of ScheduleAt: past-check + node allocation,
  // then heap insertion + id minting.
  uint32_t BeginSchedule(TimeNs when);
  EventId FinishSchedule(TimeNs when, uint32_t index);

  // The non-template halves of PostBatch: append a slot without sifting,
  // then repair the heap invariant for the last `appended` slots.
  void AppendUnsifted(TimeNs when, uint32_t index);
  void RestoreHeap(size_t appended);

  // Index-tracking 4-ary heap primitives: every time a slot moves, the
  // owning node's heap_pos follows it.
  void Place(size_t pos, HeapSlot slot) {
    heap_[pos] = slot;
    NodeAt(slot.node).heap_pos = static_cast<int32_t>(pos);
  }
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  void RemoveAt(size_t pos);

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  std::vector<HeapSlot> heap_;
  std::vector<std::unique_ptr<Slab>> slabs_;
  std::vector<uint32_t> free_;
  PerfCounters* counters_ = PerfCounters::Current();
};

}  // namespace vsched

#endif  // SRC_SIM_EVENT_QUEUE_H_
