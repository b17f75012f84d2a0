// Process and ProcessTable: the Unix protection mechanisms SUD leans on.
//
// Section 3 of the paper: "SUD uses existing Unix protection mechanisms to
// confine drivers, by running each driver in a separate process under a
// separate Unix user ID." The simulated process carries exactly the state
// the isolation argument needs: a UID, an IO-permission bitmap (the IOPB in
// the task's TSS, Section 3.2.1), resource limits (setrlimit, Section 4.1),
// a scheduling policy (sched_setscheduler), and an accounting of every
// machine resource granted to it — which is what makes kill -9 + restart a
// complete reclamation (Section 4.1).

#ifndef SUD_SRC_KERN_PROCESS_H_
#define SUD_SRC_KERN_PROCESS_H_

#include <atomic>
#include <bitset>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"

namespace sud::kern {

using Pid = uint32_t;
using Uid = uint32_t;

enum class SchedPolicy {
  kNormal,
  kFifo,      // real-time, for audio drivers (Section 4.1)
  kRoundRobin,
};

struct Rlimits {
  uint64_t memory_bytes = 64ull * 1024 * 1024;
  uint64_t open_uchans = 16;
};

class Process {
 public:
  Process(Pid pid, Uid uid, std::string name) : pid_(pid), uid_(uid), name_(std::move(name)) {}

  Pid pid() const { return pid_; }
  Uid uid() const { return uid_; }
  const std::string& name() const { return name_; }
  // An administrator kill marks the process dead while the supervisor's
  // watchdog thread may be reading the flag; the release/acquire pair makes
  // everything done before the kill visible to a reader that sees it dead.
  bool alive() const { return alive_.load(std::memory_order_acquire); }
  void MarkDead() { alive_.store(false, std::memory_order_release); }

  // --- IOPB: per-process IO-port permission bitmap.
  void GrantIoPorts(uint16_t first, uint16_t count);
  void RevokeIoPorts(uint16_t first, uint16_t count);
  bool MayAccessIoPort(uint16_t port) const { return iopb_.test(port); }
  size_t granted_io_ports() const { return iopb_.count(); }

  // --- memory accounting against rlimit.
  Status ChargeMemory(uint64_t bytes);
  void UncchargeMemory(uint64_t bytes);
  uint64_t memory_used() const { return memory_used_; }

  Rlimits& rlimits() { return rlimits_; }
  const Rlimits& rlimits() const { return rlimits_; }

  SchedPolicy sched_policy() const { return sched_policy_; }
  void set_sched_policy(SchedPolicy policy) { sched_policy_ = policy; }

  // CPU time accounting (simulated ns), fed by the CpuModel harness.
  void ChargeCpu(uint64_t nanos) { cpu_ns_ += nanos; }
  uint64_t cpu_ns() const { return cpu_ns_; }

 private:
  Pid pid_;
  Uid uid_;
  std::string name_;
  std::atomic<bool> alive_{true};
  std::bitset<65536> iopb_;
  uint64_t memory_used_ = 0;
  uint64_t cpu_ns_ = 0;
  Rlimits rlimits_;
  SchedPolicy sched_policy_ = SchedPolicy::kNormal;
};

class ProcessTable {
 public:
  // Spawns a process under `uid`. UIDs for driver processes are distinct
  // per-driver, per the paper.
  Process& Spawn(const std::string& name, Uid uid);
  Status Kill(Pid pid);
  Process* Find(Pid pid);
  const Process* Find(Pid pid) const;
  std::vector<Process*> alive_processes();

 private:
  Pid next_pid_ = 100;
  std::map<Pid, std::unique_ptr<Process>> processes_;
};

}  // namespace sud::kern

#endif  // SUD_SRC_KERN_PROCESS_H_
