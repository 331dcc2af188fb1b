//! Forced plan extremes, each checked against the brute-force oracle.
//!
//! [`sweep`] plans a SELECT from catalog statistics and rewrites the chosen
//! plan uniformly, each scan mode with each join mode: every scan as a
//! `SeqScan`, as a `PrunedScan`, and as an `IndexScan` where an index
//! covers one of its interval predicates; every equi-join as a `HashJoin`
//! building on either side, as an `NLJoin`, and as an `IndexNLJoin` where
//! one side is a base table with an index on its join key. The rewrites are
//! made here, on the plan; the optimizer has no option for them. Every
//! variant runs on the executor and must match the oracle ([`check_run`]).
//!
//! Each run's rows (rendered, so `-0.0` and `0.0` differ), total work bits
//! and per-node kind and work bits fold into an FNV-1a digest, so a corpus
//! pins its charged work, forced variants included, in one number.

#![allow(dead_code)] // each test crate uses a part of it

use crate::oracle::{self, Answer};
use jits_catalog::Catalog;
use jits_common::Value;
use jits_executor::{execute, ExecOutput};
use jits_optimizer::plan::JoinKey;
use jits_optimizer::{
    optimize, CardinalityEstimator, CatalogStatisticsProvider, CostModel, DefaultSelectivities,
    NodeEst, PhysicalPlan, ScanGroupEstimate,
};
use jits_query::{bind_statement, parse, BoundStatement, QueryBlock};
use jits_storage::Table;
use PhysicalPlan::{HashJoin, IndexNLJoin, IndexScan, NLJoin, PrunedScan, SeqScan};

fn bind(catalog: &Catalog, sql: &str) -> QueryBlock {
    match bind_statement(&parse(sql).unwrap(), catalog).unwrap() {
        BoundStatement::Select(block) => block,
        other => panic!("not a SELECT: {other:?}"),
    }
}

/// Binds the SELECT `sql` and plans it from `catalog`'s statistics, as the
/// engine does under `StatsSetting::CatalogOnly`.
pub fn plan_of(catalog: &Catalog, sql: &str) -> (QueryBlock, PhysicalPlan, CostModel) {
    let block = bind(catalog, sql);
    let provider = CatalogStatisticsProvider::new(catalog);
    let est = CardinalityEstimator::new(&provider, DefaultSelectivities::default());
    let cost = CostModel::default();
    let plan = optimize(&block, &est, &cost, catalog).unwrap();
    (block, plan, cost)
}

/// The oracle's answer to the SELECT `sql` over `tables`.
pub fn answer(catalog: &Catalog, tables: &[Table], sql: &str) -> Answer {
    oracle::evaluate(&bind(catalog, sql), tables)
}

/// The 64-bit FNV-1a hash of nothing.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a hash `h`.
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Folds one run into `h`: the rows rendered, the total work bits, and
/// each node's kind and work bits.
pub fn digest_run(h: u64, out: &ExecOutput) -> u64 {
    let h = digest_rows(h, &out.rows, out.stats.work);
    out.stats.nodes.iter().fold(h, |h, n| {
        fnv(
            fnv(h, n.kind.label().as_bytes()),
            &n.work.to_bits().to_le_bytes(),
        )
    })
}

/// Folds result rows, rendered, and a work total's bits into `h`.
pub fn digest_rows(h: u64, rows: &[Vec<Value>], work: f64) -> u64 {
    let h = fnv(h, format!("{rows:?}").as_bytes());
    fnv(h, &work.to_bits().to_le_bytes())
}

/// Folds per-query digests into one corpus digest, and panics with the
/// per-query list unless it equals `pinned`.
pub fn assert_pinned(corpus: &str, digests: &[(String, u64)], pinned: u64) {
    let folded = digests
        .iter()
        .fold(FNV_START, |h, (_, d)| fnv(h, &d.to_le_bytes()));
    let list: Vec<String> = digests
        .iter()
        .map(|(sql, d)| format!("{d:#018x}  {sql}"))
        .collect();
    assert_eq!(
        folded,
        pinned,
        "{corpus}: charged work moved; per query:\n{}",
        list.join("\n")
    );
}

/// Runs every forced variant of `sql`'s plan over `tables`, checks each
/// against the oracle, and returns the digest of the runs.
pub fn sweep(catalog: &Catalog, tables: &[Table], sql: &str) -> u64 {
    let (block, chosen, cost) = plan_of(catalog, sql);
    let answer = oracle::evaluate(&block, tables);
    variants(&chosen, &block, tables)
        .iter()
        .fold(FNV_START, |h, plan| {
            let out = execute(plan, &block, tables, &cost)
                .unwrap_or_else(|e| panic!("{sql}\n{}{e}", plan.explain()));
            if let Err(m) = check_run(&answer, plan, &out) {
                panic!("{sql}\n{}{m}", plan.explain());
            }
            digest_run(h, &out)
        })
}

/// Checks one run of `plan` against the oracle: the rows; each node's
/// actual rows against the oracle's count for the quantifiers it covers;
/// each scan observation's actual and live rows against the quantifier's
/// local-predicate and live counts.
pub fn check_run(answer: &Answer, plan: &PhysicalPlan, out: &ExecOutput) -> Result<(), String> {
    answer.check(&out.rows)?;
    let (mut masks, mut filtered) = (Vec::new(), 0);
    node_masks(plan, &mut masks, &mut filtered);
    if (masks.len(), filtered) != (out.stats.nodes.len(), out.stats.scans.len()) {
        return Err(format!(
            "{} node and {} scan observations for {} nodes, {filtered} filtered scans",
            out.stats.nodes.len(),
            out.stats.scans.len(),
            masks.len()
        ));
    }
    for (node, &mask) in out.stats.nodes.iter().zip(&masks) {
        let want = answer.subset_rows[mask] as f64;
        if node.actual_rows != want {
            return Err(format!(
                "{} over quantifiers {mask:#b}: actual rows {} where the oracle counts {want}",
                node.kind.label(),
                node.actual_rows
            ));
        }
    }
    for s in &out.stats.scans {
        let want = (
            answer.local_rows[s.qun] as f64,
            answer.live_rows[s.qun] as f64,
        );
        if (s.actual_rows, s.table_rows) != want {
            return Err(format!(
                "scan of q{}: actual/live rows {}/{} where the oracle counts {}/{}",
                s.qun, s.actual_rows, s.table_rows, want.0, want.1
            ));
        }
    }
    Ok(())
}

/// Pushes the quantifier bitmask of every observation-charging node in
/// the executor's order (post-order; an index nested-loop join's inner is
/// probed, not run, and records no scan observation), counts the scans
/// that apply predicates, and returns the subtree's mask.
fn node_masks(plan: &PhysicalPlan, out: &mut Vec<usize>, filtered: &mut usize) -> usize {
    let mask = match plan {
        SeqScan { scan, .. } | PrunedScan { scan, .. } | IndexScan { scan, .. } => {
            *filtered += usize::from(!scan.pred_indices.is_empty());
            1 << scan.qun
        }
        HashJoin {
            build: a, probe: b, ..
        }
        | NLJoin {
            outer: a, inner: b, ..
        } => node_masks(a, out, filtered) | node_masks(b, out, filtered),
        IndexNLJoin { outer, inner, .. } => node_masks(outer, out, filtered) | 1 << inner.qun,
    };
    out.push(mask);
    mask
}

/// How a rewrite reaches every base table.
#[derive(Clone, Copy)]
enum Access {
    Seq,
    Pruned,
    Index,
}

/// How a rewrite joins: `HashSwapped` builds on the other side.
#[derive(Clone, Copy, PartialEq)]
enum Method {
    Hash,
    HashSwapped,
    Nested,
    IndexNested,
}

/// The chosen plan first, then every distinct uniform rewrite of it; `None`
/// keeps the chosen access paths or join methods.
pub fn variants(chosen: &PhysicalPlan, block: &QueryBlock, tables: &[Table]) -> Vec<PhysicalPlan> {
    use Method as M;
    let mut out = vec![chosen.clone()];
    for access in [
        None,
        Some(Access::Seq),
        Some(Access::Pruned),
        Some(Access::Index),
    ] {
        for method in [
            None,
            Some(M::Hash),
            Some(M::HashSwapped),
            Some(M::Nested),
            Some(M::IndexNested),
        ] {
            let rewrite = Rewrite {
                block,
                tables,
                access,
                method,
            };
            let plan = rewrite.plan(chosen);
            if !out.contains(&plan) {
                out.push(plan);
            }
        }
    }
    out
}

struct Rewrite<'a> {
    block: &'a QueryBlock,
    tables: &'a [Table],
    access: Option<Access>,
    method: Option<Method>,
}

impl Rewrite<'_> {
    fn plan(&self, plan: &PhysicalPlan) -> PhysicalPlan {
        let (chosen, left, right, keys, est) = match plan {
            SeqScan { scan, est } | PrunedScan { scan, est, .. } | IndexScan { scan, est, .. } => {
                return self.scan(plan, scan, *est);
            }
            HashJoin {
                build,
                probe,
                keys,
                est,
            } => (Method::Hash, self.plan(build), self.plan(probe), keys, est),
            NLJoin {
                outer,
                inner,
                keys,
                est,
            } => (
                Method::Nested,
                self.plan(outer),
                self.plan(inner),
                keys,
                est,
            ),
            IndexNLJoin {
                outer,
                inner,
                keys,
                est,
                ..
            } => {
                let est_rows = inner.base_rows * inner.selectivity;
                let seq = SeqScan {
                    scan: inner.clone(),
                    est: NodeEst {
                        rows: est_rows,
                        cost: 0.0,
                    },
                };
                // kept an index join, the inner stays a probed table
                let inner = match self.method {
                    None => seq,
                    Some(_) => self.plan(&seq),
                };
                (Method::IndexNested, self.plan(outer), inner, keys, est)
            }
        };
        self.join(
            self.method.unwrap_or(chosen),
            chosen,
            left,
            right,
            keys,
            *est,
        )
    }

    fn scan(&self, plan: &PhysicalPlan, scan: &ScanGroupEstimate, est: NodeEst) -> PhysicalPlan {
        let scan = scan.clone();
        match (self.access, plan) {
            (Some(Access::Seq), _) => SeqScan { scan, est },
            (Some(Access::Pruned), PrunedScan { .. }) | (Some(Access::Index), IndexScan { .. }) => {
                plan.clone()
            }
            (Some(Access::Pruned), _) => PrunedScan {
                scan,
                est_blocks: 0.0,
                est,
            },
            (Some(Access::Index), _) => {
                let table = &self.tables[scan.table.index()];
                let column = scan
                    .pred_indices
                    .iter()
                    .map(|&i| &self.block.local_predicates[i])
                    .find(|p| p.interval().is_some() && table.index(p.column).is_some());
                match column {
                    Some(p) => IndexScan {
                        index_column: p.column,
                        scan,
                        index_rows: 0.0,
                        est,
                    },
                    None => plan.clone(),
                }
            }
            (None, _) => plan.clone(),
        }
    }

    /// Joins `left` (build or outer) with `right` by `method`; where an
    /// index nested-loop join does not apply, by `chosen`, or by hashing
    /// when that was the index join. A join without keys stays a
    /// nested-loop product.
    fn join(
        &self,
        method: Method,
        chosen: Method,
        left: PhysicalPlan,
        right: PhysicalPlan,
        keys: &[JoinKey],
        est: NodeEst,
    ) -> PhysicalPlan {
        let swapped: Vec<JoinKey> = keys.iter().map(|&(a, b)| (b, a)).collect();
        let (l, r, keys_v) = (
            Box::new(left.clone()),
            Box::new(right.clone()),
            keys.to_vec(),
        );
        match method {
            _ if keys.is_empty() => NLJoin {
                outer: l,
                inner: r,
                keys: keys_v,
                est,
            },
            Method::Hash => HashJoin {
                build: l,
                probe: r,
                keys: keys_v,
                est,
            },
            Method::HashSwapped => HashJoin {
                build: r,
                probe: l,
                keys: swapped,
                est,
            },
            Method::Nested => NLJoin {
                outer: l,
                inner: r,
                keys: keys_v,
                est,
            },
            Method::IndexNested => self
                .index_join(&left, &right, keys, est)
                .or_else(|| self.index_join(&right, &left, &swapped, est))
                .unwrap_or_else(|| {
                    let fallback = match chosen {
                        Method::IndexNested => Method::Hash,
                        other => other,
                    };
                    self.join(fallback, chosen, left, right, keys, est)
                }),
        }
    }

    /// An index nested-loop join probing `inner`'s table, when `inner` is a
    /// base-table access with an index on one of its join keys; that key
    /// drives the probe and the others are checked per candidate.
    fn index_join(
        &self,
        outer: &PhysicalPlan,
        inner: &PhysicalPlan,
        keys: &[JoinKey],
        est: NodeEst,
    ) -> Option<PhysicalPlan> {
        let (SeqScan { scan, .. } | PrunedScan { scan, .. } | IndexScan { scan, .. }) = inner
        else {
            return None;
        };
        let table = &self.tables[scan.table.index()];
        let drive = keys
            .iter()
            .position(|&(_, (q, c))| q == scan.qun && table.index(c).is_some())?;
        let mut keys = keys.to_vec();
        let first = keys.remove(drive);
        keys.insert(0, first);
        Some(IndexNLJoin {
            outer: Box::new(outer.clone()),
            inner: scan.clone(),
            index_column: (first.1).1,
            keys,
            est,
        })
    }
}
