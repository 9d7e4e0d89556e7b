/**
 * @file
 * Machine-readable concurrency and hot-path annotations.
 *
 * Like DLVP_SPEC_STATE (common/spec_state.hh), every macro here
 * expands to a no-op; the point is to make invariants visible to
 * tools/analyze/dlvp-analyze, which enforces them statically on every
 * ci_check run (DESIGN.md §10). TSan can only catch a discipline
 * violation on an execution that actually races; these tags let the
 * lexical checker reject the pattern before it ever runs.
 *
 * Lock discipline (rule `lock-discipline`):
 *
 *     std::mutex m_;
 *     std::deque<Job> queue_;
 *     DLVP_GUARDED_BY(m_);
 *
 * DLVP_GUARDED_BY(mtx) tags the member declared immediately before it
 * (same or previous line). Every access to a guarded member inside
 * its component (header + sibling .cc) must then sit lexically inside
 * a scope that constructed a std::lock_guard / unique_lock /
 * shared_lock / scoped_lock on the named mutex, or inside a function
 * whose body opens with DLVP_REQUIRES(mtx) — the "Locked"-suffix
 * caller-holds-the-lock convention made checkable:
 *
 *     void drainQueueLocked()
 *     {
 *         DLVP_REQUIRES(m_);
 *         ...
 *     }
 *
 * Constructors and destructors are exempt (single-threaded by
 * contract); member declarations and constructor init lists sit at
 * class scope and are never accesses.
 *
 * Hot-path purity (rule `hot-path`):
 *
 *     void OoOCore::issueStage()
 *     {
 *         DLVP_HOT;
 *         ...
 *     }
 *
 * DLVP_HOT marks a function as part of the per-cycle simulation loop
 * or the flattened predictor probe path. The analyzer walks the call
 * graph from every tagged function (bounded by each file's real
 * include context) and reports heap allocation (new, make_unique/
 * make_shared, malloc/calloc, container growth calls), locking, and
 * I/O anywhere reachable. Throw statements are exempt — error exits
 * leave the hot path by definition. Deliberate exceptions (e.g. the
 * completion wheel's amortized bucket growth) carry a justified
 * allow(hot-path) suppression on the flagged line.
 */

#ifndef DLVP_COMMON_ANNOTATIONS_HH
#define DLVP_COMMON_ANNOTATIONS_HH

#define DLVP_GUARDED_BY(mtx) \
    static_assert(true, "guarded by: " #mtx)

#define DLVP_REQUIRES(mtx) \
    static_assert(true, "caller must hold: " #mtx)

#define DLVP_HOT static_assert(true, "hot path: allocation-free")

#endif // DLVP_COMMON_ANNOTATIONS_HH
