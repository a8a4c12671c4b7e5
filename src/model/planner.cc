#include "model/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>

#include "exec/shared_scan.h"
#include "mem/hw_counters.h"
#include "model/calibrator.h"
#include "model/cost_model.h"
#include "model/estimator.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ccdb {

size_t DefaultScanChunkRows(const MachineProfile& profile) {
  // Prefer the host L2 the Calibrator measures (ROADMAP: tune the default
  // against measured geometry, not the static profile); fall back to the
  // profile when the platform doesn't report cache sizes.
  size_t l2_bytes = MeasuredL2CacheBytes();
  if (l2_bytes == 0) l2_bytes = profile.l2.capacity_bytes;
  size_t rows = l2_bytes / 2 / 16;
  if (rows < 4096) return 4096;
  if (rows > (size_t{1} << 20)) return size_t{1} << 20;
  return rows;
}

namespace {

size_t CountJoins(const LogicalNode& n) {
  size_t c = n.op == LogicalOp::kJoin ? 1 : 0;
  for (const auto& child : n.children) c += CountJoins(*child);
  return c;
}

size_t CountNodes(const LogicalNode& n) {
  size_t c = 1;
  for (const auto& child : n.children) c += CountNodes(*child);
  return c;
}

/// Nodes the planner may lower as an exchange (dist/exchange.h): joins and
/// group-bys. Bounds the extra OpCostInfo records (one transfer-term
/// annotation per exchange) and the ExchangeNodeInfo pool — both
/// preallocated because operators hold raw pointers into them.
size_t CountExchangeSites(const LogicalNode& n) {
  size_t c =
      n.op == LogicalOp::kJoin || n.op == LogicalOp::kGroupByAgg ? 1 : 0;
  for (const auto& child : n.children) c += CountExchangeSites(*child);
  return c;
}

// --- measured actuals --------------------------------------------------------

/// Decorator recording an operator's inclusive wall time (Open + every
/// Next + Close) and emitted rows into its OpCostInfo — the "verify" side
/// of every prediction. Children are wrapped too, so exclusive time is
/// recovered by subtracting child records (ExplainCosts).
class TimedOperator : public Operator {
 public:
  TimedOperator(std::unique_ptr<Operator> inner, OpCostInfo* info)
      : inner_(std::move(inner)), info_(info) {}

  Status Open() override {
    WallTimer t;
    Status st = inner_->Open();
    info_->measured_inclusive_ns += static_cast<double>(t.ElapsedNanos());
    return st;
  }
  StatusOr<bool> Next(Chunk* out) override {
    WallTimer t;
    StatusOr<bool> more = inner_->Next(out);
    info_->measured_inclusive_ns += static_cast<double>(t.ElapsedNanos());
    if (more.ok() && *more) info_->actual_rows += out->rows;
    return more;
  }
  void Close() override {
    WallTimer t;
    inner_->Close();
    info_->measured_inclusive_ns += static_cast<double>(t.ElapsedNanos());
  }

 private:
  std::unique_ptr<Operator> inner_;
  OpCostInfo* info_;
};

// --- predictions (§2 scan model generalized per operator) -------------------

/// §2 applied to `rows` touches of a column stored at `stride` bytes per
/// tuple: per iteration ML1 = min(s/LS_L1, 1), ML2 = min(s/LS_L2, 1), plus
/// the TLB analogue, and wscan of pure CPU work.
ModelPrediction ScanRowsPrediction(const MachineProfile& m, double rows,
                                   size_t stride) {
  ModelPrediction p;
  double s = static_cast<double>(stride);
  p.cpu_ns = rows * m.cost.wscan_ns;
  p.l1_misses =
      rows * std::min(s / static_cast<double>(m.l1.line_bytes), 1.0);
  p.l2_misses =
      rows * std::min(s / static_cast<double>(m.l2.line_bytes), 1.0);
  p.l2_seq_misses = p.l2_misses;  // a scan is one prefetchable sweep
  p.tlb_misses =
      rows * std::min(s / static_cast<double>(m.tlb.page_bytes), 1.0);
  return p;
}

/// Scan stride of a visible column, from its base-table storage (encoded
/// string columns scan their 1-2 byte codes). Derived columns (aggregate
/// output) default to 8 bytes — their owned i64/f64 spans.
size_t ColumnStride(const ColumnSourceMap& src, const std::string& name) {
  auto it = src.find(name);
  if (it == src.end() || it->second.table == nullptr) return 8;
  return std::max<size_t>(it->second.table->column_value_bytes(it->second.col),
                          1);
}

/// Predicted cost of one filter pass: the first leaf of a conjunction scans
/// all `rows` candidates of its column, every later conjunct touches only
/// the estimated survivors; disjunction branches each scan the full input.
/// Mirrors exactly how SelectOp executes (fused narrowing / branch union).
ModelPrediction PredictExprCost(const Expr& e, double rows,
                                const ColumnSourceMap& src,
                                const MachineProfile& m) {
  ModelPrediction p;
  switch (e.kind) {
    case Expr::Kind::kAnd: {
      double surviving = rows;
      for (const Expr& c : e.children) {
        p += PredictExprCost(c, surviving, src, m);
        surviving *= EstimateExprSelectivity(c, src);
      }
      return p;
    }
    case Expr::Kind::kOr: {
      for (const Expr& c : e.children) {
        p += PredictExprCost(c, rows, src, m);
      }
      return p;
    }
    case Expr::Kind::kNot: {
      for (const Expr& c : e.children) {
        p += PredictExprCost(c, rows, src, m);
      }
      return p;
    }
    default:
      return ScanRowsPrediction(m, rows, ColumnStride(src, e.column));
  }
}

/// Group-table probe cost per input row, by where the table lives in the
/// hierarchy (§3.2: hash-grouping wins because the group table usually
/// stays cache-resident): an L1-resident table costs CPU only, an
/// L2-resident one an L1 miss per row, a memory-resident one an L2 miss
/// (plus a TLB miss once it outgrows the TLB span).
ModelPrediction GroupProbePrediction(const MachineProfile& m, double rows,
                                     double table_bytes) {
  ModelPrediction p;
  p.cpu_ns = rows * 4.0 * m.cost.wscan_ns;  // hash + slot probe + fold
  if (table_bytes <= static_cast<double>(m.l1.capacity_bytes)) {
    return p;
  }
  if (table_bytes <= static_cast<double>(m.l2.capacity_bytes)) {
    p.l1_misses = rows;
    return p;
  }
  p.l1_misses = rows;
  p.l2_misses = rows;
  if (table_bytes > static_cast<double>(m.tlb.span_bytes())) {
    p.tlb_misses = rows;
  }
  return p;
}

void FillPrediction(OpCostInfo* info, const ModelPrediction& p,
                    const Latencies& lat) {
  info->predicted_cpu_ns = p.cpu_ns;
  info->predicted_l1_misses = p.l1_misses;
  info->predicted_l2_misses = p.l2_misses;
  info->predicted_tlb_misses = p.tlb_misses;
  info->predicted_ns = p.total_ns(lat);
}

// --- lowering ----------------------------------------------------------------

struct Lowered {
  std::unique_ptr<Operator> op;
  /// Chunk column names in physical order — what the root operator emits.
  /// Join reordering permutes this relative to the Build() schema; the
  /// planner derives the output map from it.
  std::vector<std::string> layout;
  uint64_t est_rows = 0;
  /// Index of this subtree's root cost record in LowerCtx::costs — what a
  /// parent links its children through (join chains re-parent spine
  /// records after deciding the order).
  int root_cost = -1;
};

struct LowerCtx {
  const PlannerOptions* options = nullptr;
  const CostModel* model = nullptr;
  size_t chunk_rows = 0;
  const ExecContext* ctx = nullptr;
  std::vector<JoinNodeInfo>* joins = nullptr;
  size_t next_join = 0;
  std::vector<FilterNodeInfo>* filters = nullptr;
  std::vector<OpCostInfo>* costs = nullptr;
  size_t next_cost = 0;
  std::vector<ExchangeNodeInfo>* exchanges = nullptr;
  size_t next_exchange = 0;
  /// Calibrated in-process copy bandwidth pricing the exchange transfer
  /// term (model/calibrator.h); 0 when exchanges are disabled for this plan.
  double xfer_ns_per_byte = 0;

  /// Resolved partition count; exchanges are considered only above 1.
  size_t Partitions() const { return ctx->partitions; }

  OpCostInfo* NewCost(std::string label, int depth, int parent) {
    OpCostInfo* info = &(*costs)[next_cost++];
    info->label = std::move(label);
    info->depth = depth;
    info->parent = parent;
    return info;
  }
  int CostIndex(const OpCostInfo* info) const {
    return static_cast<int>(info - costs->data());
  }
};

std::string Truncate(std::string s, size_t n) {
  if (s.size() > n) {
    s.resize(n - 3);
    s += "...";
  }
  return s;
}

StatusOr<Lowered> LowerNode(const LogicalNode& n, int depth, int parent,
                            LowerCtx& c);

/// One entry of a commutative inner-join chain: the inner (build) subtree
/// with the keys and hint that travel with it wherever it moves.
struct ChainEntry {
  const LogicalNode* inner = nullptr;
  std::string left_key, right_key;
  JoinStrategy strategy = JoinStrategy::kBest;
};

/// True when any permutation of `entries` over `base` validates: every
/// probe key must resolve in the base relation (so it exists no matter
/// which joins ran before), and no inner relation may surface a column
/// named like a probe key or like a column of another inner (which would
/// change how names — and the final output map — resolve).
bool ChainReorderSafe(const LogicalNode& base,
                      const std::vector<ChainEntry>& entries) {
  auto base_schema = ComputeNodeSchema(base);
  if (!base_schema.ok()) return false;
  for (const ChainEntry& e : entries) {
    bool found = false;
    for (const PlanColumn& col : *base_schema) {
      if (col.name == e.left_key) {
        if (col.ambiguous) return false;
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  std::vector<std::string> inner_names;
  for (const ChainEntry& e : entries) {
    auto schema = ComputeNodeSchema(*e.inner);
    if (!schema.ok()) return false;
    for (const PlanColumn& col : *schema) {
      for (const ChainEntry& o : entries) {
        if (col.name == o.left_key) return false;
      }
      for (const std::string& seen : inner_names) {
        if (seen == col.name) return false;  // two inners share a name
      }
      inner_names.push_back(col.name);
    }
  }
  return true;
}

// --- exchange lowering (dist/) ----------------------------------------------

/// Estimated payload bytes per row of a stream, from the base-table strides
/// of its visible columns (derived columns price at their 8-byte owned
/// spans) — the same per-row view ChunkPayloadBytes counts at runtime.
double StreamRowBytes(const std::vector<std::string>& layout,
                      const ColumnSourceMap& src) {
  size_t bytes = 0;
  for (const std::string& name : layout) bytes += ColumnStride(src, name);
  return static_cast<double>(std::max<size_t>(bytes, 1));
}

const char* ExchangeStrategyLabel(ExchangeStrategy s) {
  return s == ExchangeStrategy::kBroadcast ? "broadcast" : "repartition";
}

/// Allocates the exchange's plan-visible record plus its transfer-term
/// annotation (a leaf OpCostInfo child of the exchanged operator, so
/// ExplainCosts reports predicted-vs-measured bytes per exchange node).
ExchangeNodeInfo* NewExchangeInfo(ExchangeStrategy strategy, size_t nparts,
                                  double xfer_bytes,
                                  const ModelPrediction& xfer,
                                  double repart_bytes, double bcast_bytes,
                                  uint64_t est_rows_moved, int depth,
                                  int parent, LowerCtx& c) {
  OpCostInfo* xcost = c.NewCost(
      std::string("Exchange(") + ExchangeStrategyLabel(strategy) + ", " +
          std::to_string(nparts) + "p)",
      depth, parent);
  xcost->estimated_rows = est_rows_moved;
  FillPrediction(xcost, xfer, c.options->profile.lat);
  ExchangeNodeInfo* xinfo = &(*c.exchanges)[c.next_exchange++];
  xinfo->strategy = strategy;
  xinfo->partitions = nparts;
  xinfo->predicted_transfer_bytes = xfer_bytes;
  xinfo->predicted_transfer_ns = xfer.total_ns(c.options->profile.lat);
  xinfo->repartition_bytes = repart_bytes;
  xinfo->broadcast_bytes = bcast_bytes;
  xinfo->cost_index = c.CostIndex(xcost);
  return xinfo;
}

/// The positional domain the stats of an inner key column promise: its
/// min-max range, when the column's keys can be unique over it and the
/// range is eligible. Unique keys span at least row_count values and an
/// eligible range at most that many, so the two must be equal; an exact
/// distinct count below the rows proves a repeated key.
std::optional<KeyDomain> StatsKeyDomain(const std::optional<ColumnStats>& s) {
  if (!s.has_value() || !s->has_range || s->encoded || s->min < 0 ||
      s->max > UINT32_MAX) {
    return std::nullopt;
  }
  KeyDomain d{.key_min = static_cast<uint32_t>(s->min),
              .key_range = static_cast<uint64_t>(s->max - s->min) + 1};
  if (d.key_range != s->row_count ||
      (s->distinct_exact && s->distinct < s->row_count)) {
    return std::nullopt;
  }
  return d;
}

/// Lowers one join of a chain (or a lone join): lowers the inner subtree,
/// allocates the JoinNodeInfo, records estimates, and wraps everything in
/// a timed JoinOp.
StatusOr<Lowered> LowerOneJoin(Lowered left, uint64_t est_probe,
                               const ColumnSourceMap& probe_src,
                               const LogicalNode& join_node,
                               const ChainEntry& e, bool reordered, int depth,
                               int parent, LowerCtx& c) {
  const MachineProfile& profile = c.options->profile;
  OpCostInfo* cost = c.NewCost(
      std::string("Join(") + e.left_key + " = " + e.right_key + ", " +
          JoinTypeName(join_node.join_type) + ")",
      depth, parent);
  int self = c.CostIndex(cost);

  CCDB_ASSIGN_OR_RETURN(Lowered right,
                        LowerNode(*e.inner, depth + 1, self, c));

  uint64_t est_inner = right.est_rows;
  ColumnSourceMap inner_src = CollectColumnSources(*e.inner);
  std::optional<ColumnStats> inner_key = ResolveStats(inner_src, e.right_key);
  uint64_t est_out =
      EstimateJoinRows(est_probe, ResolveStats(probe_src, e.left_key),
                       est_inner, inner_key, join_node.join_type);

  JoinNodeInfo* info = &(*c.joins)[c.next_join++];
  info->left_key = e.left_key;
  info->right_key = e.right_key;
  info->join_type = join_node.join_type;
  info->estimated_inner_cardinality = est_inner;
  info->estimated_probe_cardinality = est_probe;
  info->estimated_result_rows = est_out;
  info->reordered = reordered;

  // Predict the join at its *estimated* inner cardinality with the same
  // model that will re-plan it at the actual cardinality at Open() time —
  // ExplainCosts() then shows how far the estimate-driven prediction was
  // from reality. The inner key's stats stand in for the keys Open()
  // gathers when it decides on a positional join.
  const std::optional<KeyDomain> inner_domain = StatsKeyDomain(inner_key);
  JoinPlan est_plan =
      est_inner == 0 ? PlanJoin(JoinStrategy::kSimpleHash, 0, profile)
                     : PlanJoin(e.strategy, est_inner, est_probe,
                                inner_domain, profile);
  info->estimated_positional = est_plan.positional.has_value();
  ModelPrediction pred =
      JoinModelPrediction(*c.model, est_plan, est_inner, est_probe);
  pred += ScanRowsPrediction(profile, static_cast<double>(est_probe),
                             ColumnStride(probe_src, e.left_key));
  cost->estimated_rows = est_out;
  FillPrediction(cost, pred, profile.lat);

  // --- scale-out decision (§3.4 terms vs the transfer term) -----------------
  // Repartition hashes both inputs across the partitions (moves |L|+|R|
  // once); broadcast replicates the inner to every partition (moves N*|R|)
  // and forwards probe chunks zero-copy. Broadcast wins exactly when its
  // transfer bytes are strictly cheaper; the exchanged plan as a whole must
  // then beat the local §3.4 prediction (partitions run concurrently, so
  // per-partition compute approximates wall time) unless kForce overrides.
  std::unique_ptr<Operator> op;
  const size_t nparts = c.Partitions();
  if (nparts > 1 && c.options->exec.exchange != ExchangePolicy::kOff) {
    double bytes_probe =
        static_cast<double>(est_probe) * StreamRowBytes(left.layout, probe_src);
    double bytes_inner = static_cast<double>(est_inner) *
                         StreamRowBytes(right.layout, inner_src);
    double repart_bytes = bytes_probe + bytes_inner;
    double bcast_bytes = static_cast<double>(nparts) * bytes_inner;
    ExchangeStrategy strat =
        c.options->exec.exchange_strategy != ExchangeStrategy::kNone
            ? c.options->exec.exchange_strategy
            : (bcast_bytes < repart_bytes ? ExchangeStrategy::kBroadcast
                                          : ExchangeStrategy::kRepartition);
    bool broadcast = strat == ExchangeStrategy::kBroadcast;
    double xfer_bytes = broadcast ? bcast_bytes : repart_bytes;
    ModelPrediction xfer = c.model->Transfer(xfer_bytes, c.xfer_ns_per_byte);

    uint64_t part_probe = std::max<uint64_t>(est_probe / nparts, 1);
    uint64_t part_inner = broadcast ? est_inner : est_inner / nparts;
    // Each partition's inner keys lie in the domain the stats promise: a
    // broadcast partition holds all of them, a repartitioned one a subset
    // whose rows still resolve through the base column's OIDs.
    JoinPlan part_plan =
        part_inner == 0 ? PlanJoin(JoinStrategy::kSimpleHash, 0, profile)
                        : PlanJoin(e.strategy, part_inner, part_probe,
                                   inner_domain, profile);
    ModelPrediction exch_pred =
        JoinModelPrediction(*c.model, part_plan, part_inner, part_probe);
    exch_pred += ScanRowsPrediction(profile, static_cast<double>(part_probe),
                                    ColumnStride(probe_src, e.left_key));
    exch_pred += xfer;

    if (c.options->exec.exchange == ExchangePolicy::kForce ||
        exch_pred.total_ns(profile.lat) < pred.total_ns(profile.lat)) {
      ExchangeNodeInfo* xinfo = NewExchangeInfo(
          strat, nparts, xfer_bytes, xfer, repart_bytes, bcast_bytes,
          est_probe + est_inner, depth + 1, self, c);

      // Each partition joins with its own JoinNodeInfo; Close() folds the
      // actuals back into the plan-visible record allocated above.
      auto winfos = std::make_shared<std::vector<JoinNodeInfo>>(nparts);
      for (JoinNodeInfo& w : *winfos) {
        w.left_key = e.left_key;
        w.right_key = e.right_key;
        w.join_type = join_node.join_type;
        w.estimated_inner_cardinality = part_inner;
        w.estimated_probe_cardinality = part_probe;
      }
      std::string lk = e.left_key, rk = e.right_key;
      JoinType jt = join_node.join_type;
      JoinStrategy js = e.strategy;
      FragmentFactory factory =
          [winfos, lk, rk, jt, js, profile, part_probe](
              size_t p, std::vector<std::unique_ptr<Operator>> ins,
              const ExecContext* wctx) -> StatusOr<std::unique_ptr<Operator>> {
        std::unique_ptr<Operator> join = std::make_unique<JoinOp>(
            std::move(ins[0]), std::move(ins[1]), lk, rk, jt, js, profile,
            &(*winfos)[p], wctx, part_probe);
        return join;
      };
      JoinNodeInfo* plan_info = info;
      std::function<void()> fold = [winfos, plan_info, broadcast] {
        plan_info->inner_cardinality = 0;
        plan_info->partition_tasks = 0;
        plan_info->inner_cluster_runs = 0;
        plan_info->stats = JoinStats{};
        bool first = true;
        for (const JoinNodeInfo& w : *winfos) {
          // A broadcast inner is the same relation N times over; count it
          // once. Repartitioned inners tile it, so they sum.
          plan_info->inner_cardinality =
              broadcast
                  ? std::max(plan_info->inner_cardinality, w.inner_cardinality)
                  : plan_info->inner_cardinality + w.inner_cardinality;
          plan_info->partition_tasks += w.partition_tasks;
          plan_info->inner_cluster_runs += w.inner_cluster_runs;
          plan_info->stats.result_count += w.stats.result_count;
          plan_info->stats.cluster_left_ms += w.stats.cluster_left_ms;
          plan_info->stats.cluster_right_ms += w.stats.cluster_right_ms;
          plan_info->stats.join_ms += w.stats.join_ms;
          if (first) {
            plan_info->plan = w.plan;
            plan_info->parallelism = w.parallelism;
            plan_info->stats.bits = w.stats.bits;
            plan_info->stats.passes = w.stats.passes;
            first = false;
          }
        }
      };

      std::vector<ExchangeInputSpec> specs(2);
      specs[0].producer = std::move(left.op);
      specs[0].routing =
          broadcast ? ExchangeRouting::kForward : ExchangeRouting::kHash;
      specs[0].key_column = e.left_key;
      specs[0].count_bytes = !broadcast;  // forwarded edges price at 0
      specs[1].producer = std::move(right.op);
      specs[1].routing =
          broadcast ? ExchangeRouting::kBroadcast : ExchangeRouting::kHash;
      specs[1].key_column = e.right_key;
      ExchangeOptions xopts;
      xopts.partitions = nparts;
      xopts.serialize = c.options->exec.serialize_exchange;
      xopts.on_close = std::move(fold);
      op = std::make_unique<ExchangeMergeOp>(std::move(specs),
                                             std::move(factory),
                                             std::move(xopts), c.ctx, xinfo);
      // The join record now predicts the exchanged plan: per-partition
      // join + the transfer term.
      FillPrediction(cost, exch_pred, profile.lat);
    }
  }
  if (op == nullptr) {
    op = std::make_unique<JoinOp>(
        std::move(left.op), std::move(right.op), e.left_key, e.right_key,
        join_node.join_type, e.strategy, profile, info, c.ctx, est_probe);
  }

  Lowered out;
  out.op = std::make_unique<TimedOperator>(std::move(op), cost);
  out.root_cost = self;
  out.layout = std::move(left.layout);
  if (join_node.join_type != JoinType::kSemi &&
      join_node.join_type != JoinType::kAnti) {
    for (std::string& name : right.layout) {
      out.layout.push_back(std::move(name));
    }
  }
  out.est_rows = est_out;
  return out;
}

/// Lowers a maximal chain of consecutive inner joins rooted at `n`,
/// reordering the inner relations greedily by estimated intermediate
/// cardinality when that is provably safe. Non-inner joins and chains of
/// one lower in written order.
StatusOr<Lowered> LowerJoinChain(const LogicalNode& n, int depth, int parent,
                                 LowerCtx& c) {
  // Collect the spine: n = Jk(...J2(J1(base, i1), i2)..., ik). Only inner
  // joins commute; a non-inner root contributes a single-join "chain" of
  // itself (its left child may hold a reorderable inner run, handled when
  // the recursion reaches it).
  std::vector<const LogicalNode*> spine;
  const LogicalNode* cur = &n;
  if (n.join_type != JoinType::kInner) {
    spine.push_back(cur);
    cur = cur->children[0].get();
  } else {
    while (cur->op == LogicalOp::kJoin &&
           cur->join_type == JoinType::kInner) {
      spine.push_back(cur);
      cur = cur->children[0].get();
    }
  }
  const LogicalNode* base = cur;
  std::vector<ChainEntry> entries(spine.size());
  for (size_t i = 0; i < spine.size(); ++i) {
    const LogicalNode* j = spine[spine.size() - 1 - i];  // bottom-up
    entries[i] = {j->children[1].get(), j->left_key, j->right_key,
                  j->join_strategy};
  }

  // Decide the order: greedy smallest estimated intermediate first. Strict
  // improvement only — ties keep the written order, so equal-cost plans
  // lower exactly as authored.
  size_t k = entries.size();
  std::vector<size_t> order(k);
  for (size_t i = 0; i < k; ++i) order[i] = i;
  uint64_t base_est = EstimateNodeRows(*base);
  ColumnSourceMap base_src = CollectColumnSources(*base);
  if (k >= 2 && c.options->reorder_joins && ChainReorderSafe(*base, entries)) {
    std::vector<uint64_t> inner_est(k);
    std::vector<ColumnSourceMap> inner_src(k);
    for (size_t i = 0; i < k; ++i) {
      inner_est[i] = EstimateNodeRows(*entries[i].inner);
      inner_src[i] = CollectColumnSources(*entries[i].inner);
    }
    std::vector<bool> used(k, false);
    std::vector<size_t> greedy;
    uint64_t running = base_est;
    for (size_t step = 0; step < k; ++step) {
      size_t best = SIZE_MAX;
      uint64_t best_est = 0;
      for (size_t i = 0; i < k; ++i) {
        if (used[i]) continue;
        uint64_t est = EstimateJoinRows(
            running, ResolveStats(base_src, entries[i].left_key),
            inner_est[i], ResolveStats(inner_src[i], entries[i].right_key),
            JoinType::kInner);
        if (best == SIZE_MAX || est < best_est) {
          best = i;
          best_est = est;
        }
      }
      used[best] = true;
      greedy.push_back(best);
      running = best_est;
    }
    order = std::move(greedy);
  }

  // Lower: base, then the joins bottom-up in the chosen order. Cost-info
  // depths mirror the lowered tree (topmost chain join nearest `depth`);
  // spine parent links are patched as each join wraps the chain so far.
  int base_depth = depth + static_cast<int>(k);
  CCDB_ASSIGN_OR_RETURN(Lowered chain,
                        LowerNode(*base, base_depth, parent, c));
  uint64_t running = base_est;
  for (size_t step = 0; step < k; ++step) {
    const ChainEntry& e = entries[order[step]];
    const LogicalNode* join_node = spine[spine.size() - 1 - order[step]];
    int jdepth = base_depth - 1 - static_cast<int>(step);
    int below = chain.root_cost;
    CCDB_ASSIGN_OR_RETURN(
        chain, LowerOneJoin(std::move(chain), running, base_src, *join_node,
                            e, order[step] != step, jdepth, parent, c));
    if (below >= 0) {
      (*c.costs)[static_cast<size_t>(below)].parent = chain.root_cost;
    }
    running = chain.est_rows;
  }
  return chain;
}

StatusOr<Lowered> LowerNode(const LogicalNode& n, int depth, int parent,
                            LowerCtx& c) {
  const MachineProfile& profile = c.options->profile;
  switch (n.op) {
    case LogicalOp::kScan: {
      // Build() rejects null-table scans; keep lowering loud rather than
      // half-guarded if one ever arrives through another path.
      if (n.table == nullptr) {
        return Status::Internal("planner: scan without a table");
      }
      Lowered out;
      out.est_rows = n.table->num_rows();
      bool shared = c.ctx->shared_scans != nullptr;
      OpCostInfo* cost = c.NewCost((shared ? "SharedScan(" : "Scan(") +
                                       std::to_string(out.est_rows) + " rows)",
                                   depth, parent);
      cost->estimated_rows = out.est_rows;
      // Scans emit lazy column descriptors — near-free; the §2 iteration
      // cost lands on whichever operator touches the values. Charge only
      // per-chunk bookkeeping.
      ModelPrediction p;
      size_t chunks =
          c.chunk_rows == 0 || c.chunk_rows == SIZE_MAX
              ? 1
              : out.est_rows / std::max<size_t>(c.chunk_rows, 1) + 1;
      p.cpu_ns = static_cast<double>(chunks) * 200.0;
      FillPrediction(cost, p, profile.lat);
      std::unique_ptr<Operator> scan;
      if (shared) {
        scan = std::make_unique<SharedScanOp>(n.table, std::nullopt,
                                              c.chunk_rows,
                                              c.ctx->shared_scans, c.ctx);
      } else {
        scan = std::make_unique<ScanOp>(n.table, c.chunk_rows);
      }
      out.op = std::make_unique<TimedOperator>(std::move(scan), cost);
      out.root_cost = c.CostIndex(cost);
      for (size_t i = 0; i < n.table->num_columns(); ++i) {
        out.layout.push_back(n.table->schema().field(i).name);
      }
      return out;
    }
    case LogicalOp::kSelect:
    case LogicalOp::kHaving: {
      const char* name = n.op == LogicalOp::kHaving ? "Having" : "Select";
      OpCostInfo* cost = c.NewCost(
          std::string(name) + "(" + Truncate(n.filter.ToString(), 48) + ")",
          depth, parent);
      int self = c.CostIndex(cost);
      // A Select directly over a Scan fuses into one SharedScanOp when a
      // provider is bound: the filter must travel to the registry so
      // co-attached plans can share candidate lists between subsuming
      // filters. The scan's cost record is still allocated (records are
      // preallocated one per logical node); its actuals fold into the
      // fused operator's, timed under this Select record.
      bool fuse_shared = n.op == LogicalOp::kSelect &&
                         c.ctx->shared_scans != nullptr &&
                         n.children[0]->op == LogicalOp::kScan &&
                         n.children[0]->table != nullptr;
      ColumnSourceMap src = CollectColumnSources(*n.children[0]);
      double sel = EstimateExprSelectivity(n.filter, src);
      Lowered child;
      std::optional<Expr> lowered_expr;
      std::unique_ptr<Operator> op;
      if (fuse_shared) {
        const Table* table = n.children[0]->table;
        child.est_rows = table->num_rows();
        OpCostInfo* scan_cost = c.NewCost(
            "SharedScan(" + std::to_string(child.est_rows) + " rows, fused)",
            depth + 1, self);
        scan_cost->estimated_rows = child.est_rows;
        FillPrediction(scan_cost, ModelPrediction{}, profile.lat);
        child.root_cost = c.CostIndex(scan_cost);
        for (size_t i = 0; i < table->num_columns(); ++i) {
          child.layout.push_back(table->schema().field(i).name);
        }
        auto fused = std::make_unique<SharedScanOp>(
            table, n.filter, c.chunk_rows, c.ctx->shared_scans, c.ctx);
        lowered_expr = fused->expr();
        op = std::move(fused);
      } else {
        CCDB_ASSIGN_OR_RETURN(child,
                              LowerNode(*n.children[0], depth + 1, self, c));
        // SelectOp's constructor normalizes to NNF (Not pushed into the
        // leaves) and orders conjuncts by the selectivity heuristic; read
        // the result back so ExplainFilters() reports exactly what
        // executes.
        auto select = std::make_unique<SelectOp>(std::move(child.op),
                                                 n.filter, c.ctx);
        lowered_expr = select->expr();
        op = std::move(select);
      }
      cost->estimated_rows = static_cast<uint64_t>(
          static_cast<double>(child.est_rows) * sel + 0.5);
      FilterNodeInfo info;
      info.node = n.op == LogicalOp::kHaving ? "having" : "select";
      info.estimated_selectivity = sel;
      if (lowered_expr.has_value()) {
        const Expr& lowered = *lowered_expr;
        info.normalized = lowered.ToString();
        if (lowered.kind == Expr::Kind::kAnd) {
          for (const Expr& conj : lowered.children) {
            info.conjuncts.push_back(conj.ToString());
            info.ranks.push_back(ConjunctRank(conj));
          }
        } else {
          info.conjuncts.push_back(info.normalized);
          info.ranks.push_back(ConjunctRank(lowered));
        }
        FillPrediction(cost,
                       PredictExprCost(
                           lowered, static_cast<double>(child.est_rows), src,
                           profile),
                       profile.lat);
      } else {
        info.normalized = "true (pass-through)";
      }
      c.filters->push_back(std::move(info));
      Lowered out;
      out.op = std::make_unique<TimedOperator>(std::move(op), cost);
      out.root_cost = self;
      out.layout = std::move(child.layout);
      out.est_rows = cost->estimated_rows;
      return out;
    }
    case LogicalOp::kJoin:
      return LowerJoinChain(n, depth, parent, c);
    case LogicalOp::kProject: {
      OpCostInfo* cost = c.NewCost("Project", depth, parent);
      int self = c.CostIndex(cost);
      CCDB_ASSIGN_OR_RETURN(Lowered child,
                            LowerNode(*n.children[0], depth + 1, self, c));
      cost->estimated_rows = child.est_rows;
      FillPrediction(cost, ModelPrediction{}, profile.lat);
      Lowered out;
      out.op = std::make_unique<TimedOperator>(
          std::make_unique<ProjectOp>(std::move(child.op), n.columns), cost);
      out.root_cost = self;
      out.layout = n.columns;
      out.est_rows = child.est_rows;
      return out;
    }
    case LogicalOp::kGroupByAgg: {
      std::string label = "GroupByAgg(";
      for (size_t i = 0; i < n.group_cols.size(); ++i) {
        if (i) label += ", ";
        label += n.group_cols[i];
      }
      label += ")";
      OpCostInfo* cost = c.NewCost(std::move(label), depth, parent);
      int self = c.CostIndex(cost);
      CCDB_ASSIGN_OR_RETURN(Lowered child,
                            LowerNode(*n.children[0], depth + 1, self, c));
      ColumnSourceMap src = CollectColumnSources(*n.children[0]);
      std::vector<std::optional<ColumnStats>> key_stats;
      for (const std::string& g : n.group_cols) {
        key_stats.push_back(ResolveStats(src, g));
      }
      uint64_t est_groups = EstimateGroupCount(child.est_rows, key_stats);
      cost->estimated_rows = est_groups;

      // Distinct aggregated value columns (several aggregates over one
      // column share an accumulator — mirror the operator).
      std::vector<std::string> value_cols;
      for (const AggSpec& a : n.aggs) {
        if (a.func == AggFunc::kCount) continue;
        if (std::find(value_cols.begin(), value_cols.end(), a.value_col) ==
            value_cols.end()) {
          value_cols.push_back(a.value_col);
        }
      }
      double rows = static_cast<double>(child.est_rows);
      ModelPrediction p;
      for (const std::string& g : n.group_cols) {
        p += ScanRowsPrediction(profile, rows, ColumnStride(src, g));
      }
      for (const std::string& v : value_cols) {
        p += ScanRowsPrediction(profile, rows, ColumnStride(src, v));
      }
      // GroupAggTable footprint: flat keys + (sum, min, max) states + an
      // 8 B row count + two 8 B {hash, group} slots (load 1/2).
      double group_bytes =
          static_cast<double>(est_groups) *
          (static_cast<double>(n.group_cols.size()) * 4.0 +
           static_cast<double>(value_cols.size()) * sizeof(GroupAggState) +
           8.0 + 16.0);
      p += GroupProbePrediction(profile, rows, group_bytes);
      FillPrediction(cost, p, profile.lat);

      // Scale-out: repartition the input by hash of the first group column
      // — rows with equal full grouping keys share it, so every group
      // materializes in exactly one partition and the merge is pure
      // concatenation (no re-aggregation). Broadcast never applies to an
      // aggregation (replicated rows would be double-counted), so a forced
      // broadcast strategy hint is ignored here.
      std::unique_ptr<Operator> agg_op;
      const size_t nparts = c.Partitions();
      if (nparts > 1 && c.options->exec.exchange != ExchangePolicy::kOff &&
          !n.group_cols.empty()) {
        double bytes_in = rows * StreamRowBytes(child.layout, src);
        ModelPrediction xfer = c.model->Transfer(bytes_in, c.xfer_ns_per_byte);
        double part_rows = rows / static_cast<double>(nparts);
        ModelPrediction exch_pred;
        for (const std::string& g : n.group_cols) {
          exch_pred +=
              ScanRowsPrediction(profile, part_rows, ColumnStride(src, g));
        }
        for (const std::string& v : value_cols) {
          exch_pred +=
              ScanRowsPrediction(profile, part_rows, ColumnStride(src, v));
        }
        exch_pred += GroupProbePrediction(
            profile, part_rows,
            group_bytes / static_cast<double>(nparts));
        exch_pred += xfer;
        if (c.options->exec.exchange == ExchangePolicy::kForce ||
            exch_pred.total_ns(profile.lat) < p.total_ns(profile.lat)) {
          ExchangeNodeInfo* xinfo = NewExchangeInfo(
              ExchangeStrategy::kRepartition, nparts, bytes_in, xfer,
              bytes_in, /*bcast_bytes=*/0.0, child.est_rows, depth + 1, self,
              c);
          std::vector<std::string> gcols = n.group_cols;
          std::vector<AggSpec> aggs = n.aggs;
          size_t est_groups_part = std::max<size_t>(
              static_cast<size_t>(est_groups) / nparts, 16);
          FragmentFactory factory =
              [gcols, aggs, est_groups_part](
                  size_t, std::vector<std::unique_ptr<Operator>> ins,
                  const ExecContext* wctx)
              -> StatusOr<std::unique_ptr<Operator>> {
            std::unique_ptr<Operator> agg = std::make_unique<GroupByAggOp>(
                std::move(ins[0]), gcols, aggs, wctx, est_groups_part);
            return agg;
          };
          std::vector<ExchangeInputSpec> specs(1);
          specs[0].producer = std::move(child.op);
          specs[0].routing = ExchangeRouting::kHash;
          specs[0].key_column = n.group_cols[0];
          ExchangeOptions xopts;
          xopts.partitions = nparts;
          xopts.serialize = c.options->exec.serialize_exchange;
          agg_op = std::make_unique<ExchangeMergeOp>(
              std::move(specs), std::move(factory), std::move(xopts), c.ctx,
              xinfo);
          FillPrediction(cost, exch_pred, profile.lat);
        }
      }
      if (agg_op == nullptr) {
        agg_op = std::make_unique<GroupByAggOp>(
            std::move(child.op), n.group_cols, n.aggs, c.ctx,
            static_cast<size_t>(est_groups));
      }

      Lowered out;
      out.op = std::make_unique<TimedOperator>(std::move(agg_op), cost);
      out.root_cost = self;
      out.layout = n.group_cols;
      for (const AggSpec& a : n.aggs) out.layout.push_back(a.output_name);
      out.est_rows = est_groups;
      return out;
    }
    case LogicalOp::kOrderBy: {
      OpCostInfo* cost =
          c.NewCost("OrderBy(" + n.order_col + ")", depth, parent);
      int self = c.CostIndex(cost);
      CCDB_ASSIGN_OR_RETURN(Lowered child,
                            LowerNode(*n.children[0], depth + 1, self, c));
      ColumnSourceMap src = CollectColumnSources(*n.children[0]);
      cost->estimated_rows = child.est_rows;
      double rows = static_cast<double>(child.est_rows);
      ModelPrediction p =
          ScanRowsPrediction(profile, rows, ColumnStride(src, n.order_col));
      p.cpu_ns +=
          rows * std::log2(std::max(rows, 2.0)) * profile.cost.wscan_ns;
      FillPrediction(cost, p, profile.lat);
      Lowered out;
      out.op = std::make_unique<TimedOperator>(
          std::make_unique<OrderByOp>(std::move(child.op), n.order_col,
                                      n.descending, c.ctx),
          cost);
      out.root_cost = self;
      out.layout = std::move(child.layout);
      out.est_rows = child.est_rows;
      return out;
    }
    case LogicalOp::kLimit: {
      OpCostInfo* cost =
          c.NewCost("Limit(" + std::to_string(n.limit) + ")", depth, parent);
      int self = c.CostIndex(cost);
      CCDB_ASSIGN_OR_RETURN(Lowered child,
                            LowerNode(*n.children[0], depth + 1, self, c));
      uint64_t avail =
          child.est_rows > n.offset ? child.est_rows - n.offset : 0;
      cost->estimated_rows = std::min<uint64_t>(avail, n.limit);
      FillPrediction(cost, ModelPrediction{}, profile.lat);
      Lowered out;
      out.op = std::make_unique<TimedOperator>(
          std::make_unique<LimitOp>(std::move(child.op), n.limit, n.offset),
          cost);
      out.root_cost = self;
      out.layout = std::move(child.layout);
      out.est_rows = cost->estimated_rows;
      return out;
    }
  }
  return Status::Internal("unreachable logical op");
}

}  // namespace

StatusOr<PhysicalPlan> Planner::Lower(const LogicalPlan& plan) const {
  auto joins =
      std::make_unique<std::vector<JoinNodeInfo>>(CountJoins(plan.root()));
  // Cost records: one per logical node, plus headroom for the transfer-term
  // annotation each exchange may add. Operators keep raw pointers into the
  // vector, so it is preallocated here and only ever shrunk after lowering.
  size_t exchange_sites = CountExchangeSites(plan.root());
  auto costs = std::make_unique<std::vector<OpCostInfo>>(
      CountNodes(plan.root()) + exchange_sites);
  auto exchanges =
      std::make_unique<std::vector<ExchangeNodeInfo>>(exchange_sites);
  // Resolve ExecOptions into the context the operators borrow: parallelism
  // 0 means every hardware thread; a null pool means the process-shared
  // one (only reached for, and lazily created at, parallelism > 1).
  auto ctx = std::make_unique<ExecContext>();
  ctx->parallelism = options_.exec.parallelism == 0
                         ? ThreadPool::HardwareThreads()
                         : options_.exec.parallelism;
  ctx->pool = options_.exec.pool;
  if (ctx->pool == nullptr && ctx->parallelism > 1) {
    ctx->pool = &ThreadPool::Shared();
  }
  ctx->sched = options_.exec.sched;
  ctx->shared_scans = options_.exec.shared_scans;
  ctx->partitions =
      options_.exec.partitions == 0 ? 1 : options_.exec.partitions;
  size_t chunk_rows = options_.exec.scan_chunk_rows;
  if (chunk_rows == 0) {
    // Auto chunk: one cache-sized morsel per worker per chunk, so the
    // morsel floor never caps sharding below the parallelism knob (a
    // single-morsel chunk would leave workers idle past ~8 threads).
    chunk_rows = DefaultScanChunkRows(options_.profile);
    if (ctx->parallelism > 1) {
      chunk_rows = std::min(chunk_rows * ctx->parallelism, size_t{1} << 22);
    }
  }
  CostModel model(options_.profile);
  LowerCtx lower_ctx;
  lower_ctx.options = &options_;
  lower_ctx.model = &model;
  lower_ctx.chunk_rows = chunk_rows;
  lower_ctx.ctx = ctx.get();
  lower_ctx.joins = joins.get();
  std::vector<FilterNodeInfo> filters;
  lower_ctx.filters = &filters;
  lower_ctx.costs = costs.get();
  lower_ctx.exchanges = exchanges.get();
  if (ctx->partitions > 1 &&
      options_.exec.exchange != ExchangePolicy::kOff) {
    // One ~ms calibration per process, and only for plans that can
    // actually exchange; partitions == 1 plans never pay it.
    lower_ctx.xfer_ns_per_byte = MeasuredCopyNsPerByte();
    if (lower_ctx.xfer_ns_per_byte <= 0) {
      lower_ctx.xfer_ns_per_byte = model.FallbackCopyNsPerByte();
    }
  }

  CCDB_ASSIGN_OR_RETURN(Lowered root,
                        LowerNode(plan.root(), /*depth=*/0, /*parent=*/-1,
                                  lower_ctx));
  if (root.op == nullptr) {
    return Status::Internal("planner produced no operator tree");
  }
  // Trim unused headroom (shrinking never reallocates — the raw pointers
  // operators hold stay valid).
  costs->resize(lower_ctx.next_cost);
  exchanges->resize(lower_ctx.next_exchange);

  // Map the (possibly join-reordered) physical column order back onto the
  // Build() output schema: each schema column takes the first unused
  // physical column with its name.
  const std::vector<PlanColumn>& schema = plan.output_schema();
  if (root.layout.size() != schema.size()) {
    return Status::Internal("planner layout does not match plan schema");
  }
  std::vector<size_t> output_map(schema.size());
  std::vector<bool> taken(schema.size(), false);
  for (size_t i = 0; i < schema.size(); ++i) {
    bool found = false;
    for (size_t j = 0; j < root.layout.size(); ++j) {
      if (!taken[j] && root.layout[j] == schema[i].name) {
        output_map[i] = j;
        taken[j] = true;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::Internal("planner layout misses output column '" +
                              schema[i].name + "'");
    }
  }

  return PhysicalPlan(std::move(root.op), schema, std::move(output_map),
                      std::move(joins), std::move(filters), std::move(costs),
                      std::move(exchanges), std::move(ctx), options_.profile);
}

StatusOr<QueryResult> PhysicalPlan::Execute() {
  QueryResult result;
  result.columns.resize(output_schema_.size());
  for (size_t i = 0; i < output_schema_.size(); ++i) {
    result.columns[i].name = output_schema_[i].name;
    result.columns[i].type = output_schema_[i].type;
  }
  // Driver-thread hardware counters across the whole plan: the measured
  // side of the translation term in ExplainCosts(). Best-effort — perf is
  // often forbidden in containers, and then the report says "unavailable".
  hw_valid_ = false;
  HwCounters hw;
  bool hw_on = hw.Open().ok() && hw.Start().ok();
  CCDB_RETURN_IF_ERROR(root_->Open());
  for (;;) {
    // Per-chunk deadline/cancellation poll. Operators also poll at morsel
    // boundaries (ExecParallelFor hooks, blocking consume loops); either
    // way a non-ok Status funnels through the error path below, which
    // closes the root — and Close() recurses, so every operator releases
    // its prepared state even when a cancel lands mid-pipeline.
    if (ctx_->sched != nullptr) {
      Status st = ctx_->sched->Check();
      if (!st.ok()) {
        root_->Close();
        return st;
      }
    }
    Chunk chunk;
    auto more = root_->Next(&chunk);
    if (!more.ok()) {
      root_->Close();
      return more.status();
    }
    if (!*more) break;
    if (chunk.cols.size() != output_schema_.size()) {
      root_->Close();
      return Status::Internal("operator output does not match plan schema");
    }
    for (size_t i = 0; i < chunk.cols.size(); ++i) {
      Status st = chunk.AppendTo(output_map_[i], &result.columns[i]);
      if (!st.ok()) {
        root_->Close();
        return st;
      }
    }
  }
  root_->Close();
  if (hw_on) {
    uint64_t cycles = 0;
    StatusOr<MemEvents> events = hw.Stop(&cycles);
    if (events.ok()) {
      hw_events_ = *events;
      hw_cycles_ = cycles;
      hw_valid_ = true;
    }
  }
  return result;
}

std::string PhysicalPlan::ExplainJoins() const {
  std::string out;
  char line[384];
  for (const JoinNodeInfo& j : *joins_) {
    std::snprintf(
        line, sizeof(line),
        "join [%s] %s = %s: est C=%llu%s, inner C=%llu -> %s%s, B=%d "
        "(%d passes), model %.2f ms, est result %llu, result %llu, "
        "%llu partition tasks on %zu workers, inner clustered %dx%s\n",
        JoinTypeName(j.join_type), j.left_key.c_str(), j.right_key.c_str(),
        (unsigned long long)j.estimated_inner_cardinality,
        j.estimated_positional ? " (positional)" : "",
        (unsigned long long)j.inner_cardinality,
        JoinStrategyName(j.plan.strategy),
        j.plan.positional.has_value() ? " (positional)"
        : j.plan.strategy != JoinStrategy::kBest ? ""
        : j.plan.use_radix_join                  ? " (radix)"
                                                 : " (phash)",
        j.plan.bits, j.plan.passes, j.plan.predicted_ms,
        (unsigned long long)j.estimated_result_rows,
        (unsigned long long)j.stats.result_count,
        (unsigned long long)j.partition_tasks, j.parallelism,
        j.inner_cluster_runs, j.reordered ? " (reordered)" : "");
    out += line;
  }
  return out;
}

std::string PhysicalPlan::ExplainFilters() const {
  std::string out;
  char buf[64];
  for (const FilterNodeInfo& f : filters_) {
    out.append("filter [").append(f.node).append("] ").append(f.normalized);
    std::snprintf(buf, sizeof(buf), " (est selectivity %.4f)",
                  f.estimated_selectivity);
    out.append(buf);
    out.push_back('\n');
    if (f.conjuncts.empty()) continue;
    out.append("  eval order: ");
    for (size_t i = 0; i < f.conjuncts.size(); ++i) {
      if (i) out.append("; ");
      out.append(f.conjuncts[i]);
      out.append(" [").append(ConjunctRankName(f.ranks[i])).append("]");
    }
    out.push_back('\n');
  }
  return out;
}

std::vector<double> PhysicalPlan::MeasuredExclusiveNs() const {
  const std::vector<OpCostInfo>& costs = *costs_;
  std::vector<double> exclusive_ns(costs.size());
  for (size_t i = 0; i < costs.size(); ++i) {
    exclusive_ns[i] = costs[i].measured_inclusive_ns;
  }
  for (size_t i = 0; i < costs.size(); ++i) {
    if (costs[i].parent >= 0) {
      exclusive_ns[static_cast<size_t>(costs[i].parent)] -=
          costs[i].measured_inclusive_ns;
    }
  }
  for (double& ns : exclusive_ns) ns = std::max(ns, 0.0);
  return exclusive_ns;
}

std::string PhysicalPlan::ExplainCosts() const {
  const std::vector<OpCostInfo>& costs = *costs_;
  std::vector<double> exclusive_ns = MeasuredExclusiveNs();
  std::string out =
      "operator costs (predicted from estimates | measured):\n"
      "  rows est/actual, time pred/meas ms, predicted Mcycles + miss "
      "events (L1/L2/TLB)\n";
  char line[512];
  double cycle_ns = profile_.cycle_ns();
  // Print as a tree: pre-order over the parent links (join-chain lowering
  // allocates spine records out of tree order, so derive the order).
  std::vector<std::vector<size_t>> children(costs.size());
  std::vector<size_t> stack;
  for (size_t i = costs.size(); i-- > 0;) {
    if (costs[i].parent >= 0) {
      children[static_cast<size_t>(costs[i].parent)].push_back(i);
    } else {
      stack.push_back(i);
    }
  }
  while (!stack.empty()) {
    size_t i = stack.back();
    stack.pop_back();
    // children[i] was filled in reverse allocation order, which is exactly
    // the push order a LIFO needs to pop them in allocation order.
    for (size_t ch : children[i]) stack.push_back(ch);
    const OpCostInfo& op = costs[i];
    double meas_ms = exclusive_ns[i] * 1e-6;
    std::snprintf(line, sizeof(line),
                  "%*s%-40s rows %llu/%llu  pred %.3f ms  meas %.3f ms  "
                  "%.2f Mcycles  L1 %.0f  L2 %.0f  TLB %.0f (xlat %.3f ms)\n",
                  op.depth * 2, "", Truncate(op.label, 40).c_str(),
                  (unsigned long long)op.estimated_rows,
                  (unsigned long long)op.actual_rows, op.predicted_ns * 1e-6,
                  meas_ms, op.predicted_cpu_ns / cycle_ns * 1e-6,
                  op.predicted_l1_misses, op.predicted_l2_misses,
                  op.predicted_tlb_misses,
                  op.predicted_tlb_misses * profile_.lat.tlb_ns * 1e-6);
    out += line;
    // Exchange annotation records carry the transfer term: predicted vs
    // measured bytes, and (for joins) the margin the strategy decision
    // compared. Aggregation exchanges have no broadcast alternative.
    for (const ExchangeNodeInfo& x : *exchanges_) {
      if (x.cost_index != static_cast<int>(i)) continue;
      if (x.broadcast_bytes > 0) {
        std::snprintf(
            line, sizeof(line),
            "%*s  xfer pred %.1f KB  meas %.1f KB  "
            "(repartition %.1f KB vs broadcast %.1f KB)\n",
            op.depth * 2, "", x.predicted_transfer_bytes / 1024.0,
            static_cast<double>(x.measured_transfer_bytes) / 1024.0,
            x.repartition_bytes / 1024.0, x.broadcast_bytes / 1024.0);
      } else {
        std::snprintf(line, sizeof(line),
                      "%*s  xfer pred %.1f KB  meas %.1f KB\n", op.depth * 2,
                      "", x.predicted_transfer_bytes / 1024.0,
                      static_cast<double>(x.measured_transfer_bytes) / 1024.0);
      }
      out += line;
    }
  }
  // Plan-level translation term: the model's page-walk prediction priced at
  // the profile's lTLB against the hardware dTLB-miss count (driver thread,
  // perf_event_open) priced the same way.
  double pred_tlb = 0;
  for (const OpCostInfo& op : costs) pred_tlb += op.predicted_tlb_misses;
  std::snprintf(line, sizeof(line),
                "translation: pred %.0f walks = %.3f ms "
                "(lTLB %.1f ns, |TLB| %zu x %zu KB pages)",
                pred_tlb, pred_tlb * profile_.lat.tlb_ns * 1e-6,
                profile_.lat.tlb_ns, profile_.tlb.entries,
                profile_.tlb.page_bytes / 1024);
  out += line;
  if (hw_valid_) {
    std::snprintf(line, sizeof(line),
                  " | meas %llu dTLB misses = %.3f ms (driver thread)\n",
                  (unsigned long long)hw_events_.tlb_misses,
                  static_cast<double>(hw_events_.tlb_misses) *
                      profile_.lat.tlb_ns * 1e-6);
  } else {
    std::snprintf(line, sizeof(line),
                  " | meas: hw counters unavailable (perf forbidden)\n");
  }
  out += line;
  return out;
}

StatusOr<QueryResult> Execute(const LogicalPlan& plan,
                              const PlannerOptions& options) {
  Planner planner(options);
  CCDB_ASSIGN_OR_RETURN(PhysicalPlan physical, planner.Lower(plan));
  return physical.Execute();
}

}  // namespace ccdb
