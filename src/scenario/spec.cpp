#include "scenario/spec.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/assert.h"
#include "common/string_util.h"
#include "topology/factory.h"
#include "topology/graph_algos.h"

namespace wsn {

namespace {

const std::vector<std::string>& known_protocols() {
  static const std::vector<std::string> kProtocols = {
      "paper", "cds", "etx", "flooding", "gossip", "ideal"};
  return kProtocols;
}

/// FNV-1a, the classic order-sensitive stream hash; collision resistance
/// is irrelevant here -- the fingerprint only needs to *change* when the
/// spec does.
std::uint64_t fnv1a(std::uint64_t hash, std::string_view text) noexcept {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string format_double(double value) {
  // Shortest round-trip form keeps labels/identities stable and readable.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", value);
  return buf;
}

bool fail(std::string& error, std::string message) {
  error = std::move(message);
  return false;
}

bool parse_fault(const JsonValue& doc, std::string_view where,
                 ScenarioFault& out, std::string& error) {
  if (!doc.is_object()) {
    return fail(error, std::string(where) + ": fault must be an object");
  }
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "kind") {
      if (!value.is_string()) {
        return fail(error, std::string(where) + ": fault kind must be a "
                           "string");
      }
      const std::string& kind = value.as_string();
      if (kind == "none") {
        out.kind = ScenarioFault::Kind::kNone;
      } else if (kind == "iid") {
        out.kind = ScenarioFault::Kind::kIid;
      } else if (kind == "gilbert") {
        out.kind = ScenarioFault::Kind::kGilbert;
      } else {
        return fail(error, std::string(where) + ": unknown fault kind '" +
                           kind + "' (none|iid|gilbert)");
      }
    } else if (key == "loss") {
      if (!value.is_number() || value.as_number() < 0.0 ||
          value.as_number() >= 1.0) {
        return fail(error,
                    std::string(where) + ": loss must be in [0, 1)");
      }
      out.loss = value.as_number();
    } else if (key == "burst") {
      if (!value.is_number() || value.as_number() < 1.0) {
        return fail(error, std::string(where) + ": burst must be >= 1");
      }
      out.burst = value.as_number();
    } else if (key == "crash_prob") {
      if (!value.is_number() || value.as_number() < 0.0 ||
          value.as_number() > 1.0) {
        return fail(error,
                    std::string(where) + ": crash_prob must be in [0, 1]");
      }
      out.crash_prob = value.as_number();
    } else if (key == "crash_horizon" || key == "crash_outage") {
      std::uint64_t v = 0;
      if (!value.to_u64(v)) {
        return fail(error, std::string(where) + ": " + key +
                           " must be a non-negative integer");
      }
      (key == "crash_horizon" ? out.crash_horizon : out.crash_outage) =
          static_cast<Slot>(v);
    } else {
      return fail(error,
                  std::string(where) + ": unknown fault key '" + key + "'");
    }
  }
  if (out.kind != ScenarioFault::Kind::kNone && out.loss == 0.0) {
    // Harmless but almost certainly a typo'd spec; surface it.
    return fail(error, std::string(where) +
                       ": loss fault configured with loss = 0");
  }
  return true;
}

bool parse_entry(const JsonValue& doc, std::size_t position,
                 ScenarioEntry& out, std::string& error) {
  const std::string where =
      "scenarios[" + std::to_string(position) + "]";
  if (!doc.is_object()) {
    return fail(error, where + ": entry must be an object");
  }
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "name") {
      if (!value.is_string() || value.as_string().empty()) {
        return fail(error, where + ": name must be a non-empty string");
      }
      out.name = value.as_string();
    } else if (key == "family") {
      if (!value.is_string()) {
        return fail(error, where + ": family must be a string");
      }
      out.family = value.as_string();
      if (!is_regular_family(out.family)) {
        return fail(error,
                    where + ": unknown family '" + out.family + "'");
      }
    } else if (key == "dims") {
      if (!value.is_array() || value.as_array().size() < 2 ||
          value.as_array().size() > 3) {
        return fail(error, where + ": dims must be [m, n] or [m, n, l]");
      }
      const auto& dims = value.as_array();
      std::uint64_t d[3] = {0, 0, 1};
      for (std::size_t i = 0; i < dims.size(); ++i) {
        if (!dims[i].to_u64(d[i]) || d[i] == 0 || d[i] > 4096) {
          return fail(error,
                      where + ": dims entries must be in [1, 4096]");
        }
      }
      out.m = static_cast<int>(d[0]);
      out.n = static_cast<int>(d[1]);
      out.l = static_cast<int>(d[2]);
    } else if (key == "spacing") {
      if (!value.is_number() || value.as_number() <= 0.0) {
        return fail(error, where + ": spacing must be > 0");
      }
      out.spacing = value.as_number();
    } else if (key == "sources") {
      if (value.is_string()) {
        const std::string& policy = value.as_string();
        if (policy == "all") {
          out.source_policy = ScenarioEntry::SourcePolicy::kAll;
        } else if (policy == "center") {
          out.source_policy = ScenarioEntry::SourcePolicy::kCenter;
        } else if (policy == "corner") {
          out.source_policy = ScenarioEntry::SourcePolicy::kCorner;
        } else {
          return fail(error, where + ": unknown source policy '" + policy +
                             "' (all|center|corner|[ids])");
        }
      } else if (value.is_array()) {
        out.source_policy = ScenarioEntry::SourcePolicy::kList;
        out.source_list.clear();
        for (const JsonValue& id : value.as_array()) {
          std::uint64_t v = 0;
          if (!id.to_u64(v) || v >= kInvalidNode) {
            return fail(error,
                        where + ": source ids must be non-negative "
                                "integers");
          }
          out.source_list.push_back(static_cast<NodeId>(v));
        }
      } else {
        return fail(error,
                    where + ": sources must be a policy string or a list");
      }
    } else if (key == "protocols") {
      if (!value.is_array()) {
        return fail(error, where + ": protocols must be a list");
      }
      out.protocols.clear();
      for (const JsonValue& p : value.as_array()) {
        if (!p.is_string()) {
          return fail(error, where + ": protocols entries must be strings");
        }
        std::string name = p.as_string();
        if (name == "flood") name = "flooding";  // meshbcast_cli spelling
        const auto& known = known_protocols();
        if (std::find(known.begin(), known.end(), name) == known.end()) {
          return fail(error, where + ": unknown protocol '" +
                             p.as_string() +
                             "' (paper|cds|etx|flooding|gossip|ideal)");
        }
        out.protocols.push_back(std::move(name));
      }
    } else if (key == "faults") {
      if (!value.is_array()) {
        return fail(error, where + ": faults must be a list");
      }
      out.faults.clear();
      for (const JsonValue& f : value.as_array()) {
        ScenarioFault fault;
        if (!parse_fault(f, where, fault, error)) return false;
        out.faults.push_back(fault);
      }
    } else if (key == "recovery") {
      if (!value.is_array()) {
        return fail(error, where + ": recovery must be a list");
      }
      out.recovery.clear();
      for (const JsonValue& r : value.as_array()) {
        const std::optional<RecoveryPolicy> policy =
            r.is_string() ? parse_recovery_policy(r.as_string())
                          : std::nullopt;
        if (!policy) {
          return fail(error, where + ": unknown recovery policy "
                             "(none|repeat-k|echo-repair|adaptive)");
        }
        out.recovery.push_back(*policy);
      }
    } else if (key == "repeat_k") {
      std::uint64_t v = 0;
      if (!value.to_u64(v) || v < 1 || v > 16) {
        return fail(error, where + ": repeat_k must be in [1, 16]");
      }
      out.repeat_k = static_cast<unsigned>(v);
    } else if (key == "arq_budget") {
      std::uint64_t v = 0;
      if (!value.to_u64(v) || v > (1u << 20)) {
        return fail(error,
                    where + ": arq_budget must be a small non-negative "
                            "integer");
      }
      out.arq_budget = static_cast<std::size_t>(v);
    } else if (key == "arq_rounds") {
      std::uint64_t v = 0;
      if (!value.to_u64(v) || v < 1 || v > 64) {
        return fail(error, where + ": arq_rounds must be in [1, 64]");
      }
      out.arq_rounds = static_cast<std::size_t>(v);
    } else if (key == "seeds") {
      if (!value.is_array()) {
        return fail(error, where + ": seeds must be a list");
      }
      out.seeds.clear();
      for (const JsonValue& s : value.as_array()) {
        std::uint64_t v = 0;
        if (!s.to_u64(v)) {
          return fail(error,
                      where + ": seeds must be non-negative integers");
        }
        out.seeds.push_back(v);
      }
    } else if (key == "repeats") {
      std::uint64_t v = 0;
      if (!value.to_u64(v) || v > (1u << 20)) {
        return fail(error, where + ": repeats must be a small non-negative "
                           "integer");
      }
      out.repeats = static_cast<std::uint32_t>(v);
    } else if (key == "deadline_slots") {
      std::uint64_t v = 0;
      if (!value.to_u64(v) || v > kNeverSlot - 1) {
        return fail(error,
                    where + ": deadline_slots must be a non-negative "
                            "integer");
      }
      out.deadline_slots = static_cast<Slot>(v);
    } else if (key == "packet_bits") {
      std::uint64_t v = 0;
      if (!value.to_u64(v) || v == 0) {
        return fail(error, where + ": packet_bits must be >= 1");
      }
      out.packet_bits = static_cast<std::size_t>(v);
    } else if (key == "gossip_p") {
      if (!value.is_number() || value.as_number() <= 0.0 ||
          value.as_number() > 1.0) {
        return fail(error, where + ": gossip_p must be in (0, 1]");
      }
      out.gossip_p = value.as_number();
    } else if (key == "jitter") {
      std::uint64_t v = 0;
      if (!value.to_u64(v) || v > 1024) {
        return fail(error, where + ": jitter must be in [0, 1024]");
      }
      out.jitter = static_cast<Slot>(v);
    } else if (key == "outputs") {
      if (!value.is_object()) {
        return fail(error, where + ": outputs must be an object");
      }
      for (const auto& [okey, ovalue] : value.as_object()) {
        if (okey == "etr") {
          if (!ovalue.is_bool()) {
            return fail(error, where + ": outputs.etr must be a bool");
          }
          out.outputs.etr = ovalue.as_bool();
        } else if (okey == "trace_dir") {
          if (!ovalue.is_string()) {
            return fail(error,
                        where + ": outputs.trace_dir must be a string");
          }
          out.outputs.trace_dir = ovalue.as_string();
        } else if (okey == "stats") {
          // Stats rows are always emitted; the key is accepted for
          // spec readability.
          if (!ovalue.is_bool() || !ovalue.as_bool()) {
            return fail(error, where + ": outputs.stats can only be true");
          }
        } else {
          return fail(error,
                      where + ": unknown outputs key '" + okey + "'");
        }
      }
    } else {
      return fail(error, where + ": unknown key '" + key + "'");
    }
  }
  if (out.family.empty()) {
    return fail(error, where + ": family is required");
  }
  if (out.name.empty()) out.name = out.family;
  return true;
}

}  // namespace

std::string ScenarioFault::label() const {
  std::string out;
  switch (kind) {
    case Kind::kNone: out = "none"; break;
    case Kind::kIid: out = "iid:" + format_double(loss); break;
    case Kind::kGilbert:
      out = "gilbert:" + format_double(loss) + ":" + format_double(burst);
      break;
  }
  if (crash_prob > 0.0) {
    if (kind == Kind::kNone) out.clear();
    if (!out.empty()) out += "+";
    out += "crash:" + format_double(crash_prob) + ":" +
           std::to_string(crash_horizon) + ":" +
           std::to_string(crash_outage);
  }
  return out;
}

std::string_view to_string(ScenarioEntry::SourcePolicy policy) noexcept {
  switch (policy) {
    case ScenarioEntry::SourcePolicy::kAll: return "all";
    case ScenarioEntry::SourcePolicy::kCenter: return "center";
    case ScenarioEntry::SourcePolicy::kCorner: return "corner";
    case ScenarioEntry::SourcePolicy::kList: return "list";
  }
  return "?";
}

bool parse_scenario_spec(const JsonValue& doc, ScenarioSpec& out,
                         std::string& error) {
  if (!doc.is_object()) {
    return fail(error, "spec: top level must be an object");
  }
  out = ScenarioSpec{};
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "name") {
      if (!value.is_string()) {
        return fail(error, "spec: name must be a string");
      }
      out.name = value.as_string();
    } else if (key == "scenarios") {
      if (!value.is_array()) {
        return fail(error, "spec: scenarios must be a list");
      }
      for (std::size_t i = 0; i < value.as_array().size(); ++i) {
        ScenarioEntry entry;
        if (!parse_entry(value.as_array()[i], i, entry, error)) {
          return false;
        }
        out.entries.push_back(std::move(entry));
      }
    } else {
      return fail(error, "spec: unknown key '" + key + "'");
    }
  }
  if (out.entries.empty()) {
    return fail(error, "spec: at least one scenario entry is required");
  }
  if (out.name.empty()) out.name = "scenario";
  return true;
}

bool load_scenario_file(const std::string& path, ScenarioSpec& out,
                        std::string& error) {
  std::ifstream in(path);
  if (!in) {
    return fail(error, "cannot read " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  JsonValue doc;
  std::string json_error;
  if (!parse_json(text.str(), doc, &json_error)) {
    return fail(error, path + ": " + json_error);
  }
  return parse_scenario_spec(doc, out, error);
}

std::string job_identity(const ScenarioJob& job) {
  const ScenarioEntry& e = *job.entry;
  if (!job.error.empty()) {
    return "scenario=" + e.name + " error=" + job.error;
  }
  return "scenario=" + e.name + " family=" + e.family + " dims=" +
         std::to_string(e.m) + "x" + std::to_string(e.n) + "x" +
         std::to_string(e.l) + " spacing=" + format_double(e.spacing) +
         " src=" + std::to_string(job.source) + " proto=" + job.protocol +
         " fault=" + job.fault.label() +
         " recov=" + std::string(to_string(job.recovery)) +
         " k=" + std::to_string(e.repeat_k) +
         " arq=" + std::to_string(e.arq_budget) + ":" +
         std::to_string(e.arq_rounds) +
         " seed=" + std::to_string(job.seed) +
         " rep=" + std::to_string(job.rep) +
         " bits=" + std::to_string(e.packet_bits) +
         " deadline=" + std::to_string(e.deadline_slots) +
         " gossip_p=" + format_double(e.gossip_p) +
         " jitter=" + std::to_string(e.jitter);
}

bool expand_jobs(ScenarioSpec spec, JobMatrix& out, std::string& error) {
  out = JobMatrix{};
  out.spec = std::move(spec);

  // Deduplicate topologies by construction key; entries referencing the
  // same instance share one object (and one plan-store digest).
  std::vector<std::string> topo_keys;
  const auto topology_index = [&](ScenarioEntry& entry) {
    // Resolve defaulted dims to the paper sizes first so every job's
    // identity names its concrete instance.
    if (entry.m == 0) {
      if (entry.family == "3D-6") {
        entry.m = PaperConfig::kMesh3d;
        entry.n = PaperConfig::kMesh3d;
        entry.l = PaperConfig::kMesh3d;
      } else {
        entry.m = PaperConfig::kMesh2dM;
        entry.n = PaperConfig::kMesh2dN;
        entry.l = 1;
      }
    }
    const std::string key = entry.family + "/" + std::to_string(entry.m) +
                            "x" + std::to_string(entry.n) + "x" +
                            std::to_string(entry.l) + "@" +
                            format_double(entry.spacing);
    for (std::size_t i = 0; i < topo_keys.size(); ++i) {
      if (topo_keys[i] == key) return i;
    }
    topo_keys.push_back(key);
    out.topologies.push_back(make_mesh(entry.family, entry.m, entry.n,
                                       entry.l, entry.spacing));
    return out.topologies.size() - 1;
  };

  for (ScenarioEntry& entry : out.spec.entries) {
    const std::size_t topo = topology_index(entry);
    const Topology& instance = *out.topologies[topo];

    std::vector<NodeId> sources;
    switch (entry.source_policy) {
      case ScenarioEntry::SourcePolicy::kAll:
        sources.resize(instance.num_nodes());
        for (NodeId v = 0; v < instance.num_nodes(); ++v) sources[v] = v;
        break;
      case ScenarioEntry::SourcePolicy::kCenter:
        sources.push_back(graph_center(instance));
        break;
      case ScenarioEntry::SourcePolicy::kCorner:
        sources.push_back(0);
        break;
      case ScenarioEntry::SourcePolicy::kList:
        for (const NodeId id : entry.source_list) {
          if (id >= instance.num_nodes()) {
            return fail(error, "scenario '" + entry.name + "': source " +
                               std::to_string(id) + " out of range (" +
                               std::to_string(instance.num_nodes()) +
                               " nodes)");
          }
          sources.push_back(id);
        }
        break;
    }

    const std::size_t before = out.jobs.size();
    for (const NodeId source : sources) {
      for (const std::string& protocol : entry.protocols) {
        for (const ScenarioFault& fault : entry.faults) {
          for (const RecoveryPolicy recovery : entry.recovery) {
            for (const std::uint64_t seed : entry.seeds) {
              for (std::uint32_t rep = 0; rep < entry.repeats; ++rep) {
                ScenarioJob job;
                job.index = out.jobs.size();
                job.entry = &entry;
                job.topology = topo;
                job.source = source;
                job.protocol = protocol;
                job.fault = fault;
                job.recovery = recovery;
                job.seed = seed;
                job.rep = rep;
                out.jobs.push_back(std::move(job));
              }
            }
          }
        }
      }
    }
    if (out.jobs.size() == before) {
      // An empty cross-product surfaces as one per-job error record.
      ScenarioJob job;
      job.index = out.jobs.size();
      job.entry = &entry;
      job.topology = topo;
      job.error = "empty job matrix (no sources, protocols, faults, "
                  "recovery policies, seeds or repeats)";
      out.jobs.push_back(std::move(job));
    }
  }

  std::uint64_t hash = fnv1a(0xcbf29ce484222325ull, out.spec.name);
  for (const ScenarioJob& job : out.jobs) {
    hash = fnv1a(hash, "\n");
    hash = fnv1a(hash, job_identity(job));
  }
  out.fingerprint = hash;
  return true;
}

}  // namespace wsn
