// clado::serve::Fleet — the daemon's model table: named engines, each
// backed by N Server replicas with least-loaded dispatch.
//
// Fleet maps names to *running capacity*: a replica set of
// admission-controlled Servers, each wrapping its own Engine. It is the
// only thing a SocketDaemon fronts. route() picks the replica with
// the shallowest admission queue, so a replica wedged behind a slow batch
// stops attracting new work while its siblings absorb the stream.
//
// Hot-swap contract (put on an existing name): the table is flipped to
// the new replica set first — lookups atomically see either the complete
// old set or the complete new set, never a mix — and only then are the
// old servers drained, off the registry lock. Work already admitted to
// the old set completes on the old engines (shared_ptr holders keep them
// alive); work that races the flip and lands on a draining old server is
// answered kShutdown, which the daemon's dispatch loop converts into one
// re-route against the fresh set. The clado::fault site kRegistrySwap
// fires *before* the flip, so an injected swap failure leaves the table
// untouched (strong exception safety — chaos drills assert it).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "clado/serve/serve.h"
#include "clado/tensor/check.h"

namespace clado::serve {

class Fleet {
 public:
  /// Installs `replicas` (>= 1 non-null Servers) as the serving set for
  /// `name`, replacing any previous set. The previous servers are drained
  /// (admitted work completes) after the table points at the new set, then
  /// released. Throws std::invalid_argument on an empty/null set and
  /// clado::fault::FaultInjected when kRegistrySwap fires; both leave the
  /// table unchanged.
  void put(const std::string& name, std::vector<std::shared_ptr<Server>> replicas);

  /// Least-loaded replica of `name` by admission-queue depth. An empty
  /// `name` routes to the sole model when exactly one is loaded. Returns
  /// nullptr when the name is unknown (or empty while several models are
  /// loaded).
  std::shared_ptr<Server> route(const std::string& name) const;

  /// Resolves the routing key the same way route() does, without picking a
  /// replica: the actual table key, or nullopt when unknown/ambiguous.
  std::optional<std::string> resolve_name(const std::string& name) const;

  /// Removes `name`, draining its replicas. False when unknown.
  bool erase(const std::string& name);

  /// Drains every replica of every model (clean shutdown path).
  void drain_all();

  std::vector<std::string> names() const;
  std::size_t size() const;
  /// Replica count of `name`; 0 when unknown.
  std::size_t replica_count(const std::string& name) const;

  /// Human-readable per-model snapshot (replicas, engine label, queue
  /// depths, latency summary) — the payload of the kStats control frame.
  std::string stats_text() const;

 private:
  using Table = std::map<std::string, std::vector<std::shared_ptr<Server>>>;
  /// The one place the "empty name means the sole model" rule lives:
  /// table_.end() when `name` is unknown, or empty while several (or no)
  /// models are loaded. Caller holds mutex_.
  Table::const_iterator find_locked(const std::string& name) const
      CLADO_REQUIRES(mutex_);

  mutable std::mutex mutex_;
  Table table_ CLADO_GUARDED_BY(mutex_);
};

}  // namespace clado::serve
