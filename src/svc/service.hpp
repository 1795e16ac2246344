#pragma once
// The multi-tenant simulation service (docs/service.md).
//
// A Service owns a bounded job queue, a pool of worker threads each running
// one isolated session at a time, and the determinism-dividend result
// cache.  Requests enter as raw JSON text; every way a request can end —
// served from cache, simulated fresh, failed inside the simulation,
// rejected before it ever touched a worker — is a structured JobResult.
// The queue never blocks the submitter: when it is full the job is shed
// immediately with a typed "queue_full" reject, which is the back-pressure
// signal a front-end forwards to its client.
//
// Two isolation levels:
//   threads (default)  — one util::SessionSlot per in-flight job keeps the
//                        pool arenas disjoint; cheapest, shares the cache.
//   fork-per-job       — each job simulates in a forked child and ships its
//                        result back over a pipe; a crashing job (or a
//                        hostile spec) cannot take the daemon down.  The
//                        parent still caches the shipped result.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "svc/cache.hpp"
#include "svc/jobspec.hpp"
#include "svc/session.hpp"

namespace deep::svc {

struct ServiceConfig {
  int workers = 2;                  // worker threads (clamped to the
                                    // claimable session-slot count)
  std::size_t queue_capacity = 16;  // pending jobs before load shedding
  std::size_t cache_entries = 64;   // result-cache capacity (0 disables)
  bool fork_per_job = false;        // hard isolation: fork() per job
};

/// Terminal state of one submitted job.
struct JobResult {
  std::uint64_t job_id = 0;
  std::string status;  // "ok" | "failed" | "rejected"
  Reject reject;       // filled when status == "rejected"
  bool cache_hit = false;
  std::string key;        // spec key hash (hex), "" when rejected
  SessionResult session;  // filled when the job reached a worker

  Json to_json() const;
};

class Service {
 public:
  explicit Service(ServiceConfig cfg);
  ~Service();  // drains the queue, joins the workers, trims the heap
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Submits one raw JSON spec.  Always returns a job id; parse/validation
  /// failures and queue saturation complete the job immediately (status
  /// "rejected"), so wait() on the id returns without touching a worker.
  std::uint64_t submit(const std::string& spec_text);

  /// Blocks until the job completes and returns (moves out) its result.
  /// Each id may be waited on once.
  JobResult wait(std::uint64_t job_id);

  /// Synchronous convenience: submit + wait.
  JobResult run(const std::string& spec_text) { return wait(submit(spec_text)); }

  /// Service-level instrument snapshot (svc.* names) as registry JSON —
  /// same sorted-names contract as every other metrics snapshot.  Counter
  /// values are materialised from the authoritative tallies at call time.
  std::string stats_json() const;

  int workers() const { return static_cast<int>(threads_.size()); }
  const ResultCache& cache() const { return cache_; }

 private:
  struct PendingJob {
    std::uint64_t id = 0;
    JobSpec spec;
  };

  void worker_loop();
  JobResult execute(PendingJob job);
  SessionResult run_forked(const JobSpec& spec);
  void complete(JobResult result);

  ServiceConfig cfg_;
  ResultCache cache_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;    // workers: queue non-empty / stop
  std::condition_variable results_cv_;  // waiters: a job completed
  std::deque<PendingJob> queue_;
  std::unordered_map<std::uint64_t, JobResult> results_;
  std::uint64_t next_id_ = 1;
  std::int64_t jobs_ok_ = 0;
  std::int64_t jobs_failed_ = 0;
  std::int64_t jobs_rejected_ = 0;
  std::int64_t queue_rejects_ = 0;
  bool stopping_ = false;

  std::vector<std::thread> threads_;
};

}  // namespace deep::svc
