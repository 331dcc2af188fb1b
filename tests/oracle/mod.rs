//! A brute-force oracle for bound SELECT blocks. It evaluates a
//! [`QueryBlock`] by definition and never reads a plan:
//!
//! * each quantifier's live rows are filtered cell by cell with
//!   `LocalPredicate::matches` on `Table::value` — no zone maps, indexes,
//!   scan kernels or dictionaries;
//! * the join predicates are nested-looped over those rows, NULL never
//!   equal to anything;
//! * the joined tuples are then grouped, aggregated, ordered and limited.
//!
//! It also counts the rows of every quantifier subset's join: a plan node
//! covering that subset must report exactly this count as its actual rows.
//!
//! [`Answer::check`] compares an executor's rows with the oracle's as
//! multisets. Order is compared only where ORDER BY fixes it: the key
//! sequence must be the oracle's. Under LIMIT, rows that tie on the key (or
//! any rows, without ORDER BY) may be cut anywhere, so the result must be a
//! sub-multiset of the oracle's unlimited rows, of the right length. Floats
//! agree within [`FLOAT_TOLERANCE`], relative.

#![allow(dead_code)] // each test crate uses a part of it

use jits_common::{ColumnId, Value};
use jits_query::ast::AggFunc;
use jits_query::qgm::GroupItem;
use jits_query::{BoundAggregate, Projection, QueryBlock};
use jits_storage::{RowId, Table};
use std::cmp::Ordering;

/// Relative tolerance of float comparisons. Float sums add in the plan's
/// tuple order, so two correct plans may differ in the last bits.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

/// The oracle's answer to one block over one state of the tables.
#[derive(Debug)]
pub struct Answer {
    /// Result rows before LIMIT; under ORDER BY, sorted by the key, ties in
    /// no particular order.
    pub rows: Vec<Vec<Value>>,
    /// Position of the ORDER BY key in each output row.
    pub order: Option<usize>,
    /// The block's LIMIT.
    pub limit: Option<usize>,
    /// Live rows of each quantifier's table.
    pub live_rows: Vec<usize>,
    /// Rows of each quantifier satisfying its local predicates.
    pub local_rows: Vec<usize>,
    /// Join cardinality of every quantifier subset, indexed by its bitmask
    /// (bit `q` for quantifier `q`); entry 0 is unused.
    pub subset_rows: Vec<usize>,
}

/// Evaluates `block` over `tables` (indexed by `TableId`).
pub fn evaluate(block: &QueryBlock, tables: &[Table]) -> Answer {
    let n = block.quns.len();
    assert!((1..16).contains(&n), "{n} quantifiers");
    let table = |q: usize| &tables[block.quns[q].table.index()];
    let live: Vec<Vec<RowId>> = (0..n).map(|q| table(q).scan().collect()).collect();
    let local: Vec<Vec<RowId>> = (0..n)
        .map(|q| {
            let preds: Vec<_> = block
                .local_predicates
                .iter()
                .filter(|p| p.qun == q)
                .collect();
            live[q]
                .iter()
                .copied()
                .filter(|&r| {
                    preds
                        .iter()
                        .all(|p| p.matches(&table(q).value(r, p.column)))
                })
                .collect()
        })
        .collect();
    let join = Join {
        sizes: local.iter().map(Vec::len).collect(),
        preds: block
            .join_predicates
            .iter()
            .map(|j| {
                let side = |(q, c): (usize, ColumnId)| -> (usize, Vec<Value>) {
                    (q, local[q].iter().map(|&r| table(q).value(r, c)).collect())
                };
                [side(j.left), side(j.right)]
            })
            .collect(),
    };
    let subset_rows = (0..1usize << n).map(|mask| join.count(mask)).collect();

    let mut tuples = Vec::new();
    join.walk(&join.order((1 << n) - 1), &mut vec![0; n], 0, &mut |t| {
        tuples.push(t.to_vec())
    });
    let value = |t: &[usize], q: usize, c: ColumnId| table(q).value(local[q][t[q]], c);
    let mut order = None;
    if let Some((q, c, desc)) = block.order_by {
        tuples.sort_by(|a, b| {
            let ord = value(a, q, c).cmp_total(&value(b, q, c));
            if desc {
                ord.reverse()
            } else {
                ord
            }
        });
        order = Some(match &block.projection {
            Projection::Columns(cols) => cols
                .iter()
                .position(|&col| col == (q, c))
                .expect("the order check needs the ORDER BY column projected"),
            Projection::Wildcard => {
                (0..q).map(|p| table(p).schema().len()).sum::<usize>() + c.index()
            }
            other => panic!("ORDER BY over {other:?}"),
        });
    }
    let rows = match &block.projection {
        Projection::Wildcard => tuples
            .iter()
            .map(|t| {
                (0..n)
                    .flat_map(|q| {
                        (0..table(q).schema().len()).map(move |c| value(t, q, ColumnId(c as u32)))
                    })
                    .collect()
            })
            .collect(),
        Projection::Columns(cols) => tuples
            .iter()
            .map(|t| cols.iter().map(|&(q, c)| value(t, q, c)).collect())
            .collect(),
        Projection::CountStar => vec![vec![Value::Int(tuples.len() as i64)]],
        Projection::Aggregates(aggs) => {
            let all: Vec<&Vec<usize>> = tuples.iter().collect();
            vec![aggs.iter().map(|a| aggregate(a, &all, &value)).collect()]
        }
        Projection::GroupBy { keys, items } => {
            // equal keys (by `cmp_total`: `-0.0` and `0.0` are one, NULL is
            // its own) sort next to each other and form one group
            let mut keyed: Vec<(Vec<Value>, &Vec<usize>)> = tuples
                .iter()
                .map(|t| (keys.iter().map(|&(q, c)| value(t, q, c)).collect(), t))
                .collect();
            keyed.sort_by(|a, b| row_cmp(&a.0, &b.0));
            keyed
                .chunk_by(|a, b| row_cmp(&a.0, &b.0).is_eq())
                .map(|group| {
                    let members: Vec<&Vec<usize>> = group.iter().map(|(_, t)| *t).collect();
                    items
                        .iter()
                        .map(|item| match item {
                            GroupItem::Key(k) => group[0].0[*k].clone(),
                            GroupItem::Agg(a) => aggregate(a, &members, &value),
                        })
                        .collect()
                })
                .collect()
        }
    };
    Answer {
        rows,
        order,
        limit: block.limit,
        live_rows: live.iter().map(Vec::len).collect(),
        local_rows: local.iter().map(Vec::len).collect(),
        subset_rows,
    }
}

/// One aggregate over `members`. `SUM` adds integers in `i128`: a sum that
/// fits `i64` is an `Int`, a larger one a `Float`; any float input makes it
/// a `Float`. `SUM` of no value is `Int(0)`, `AVG`, `MIN` and `MAX` of none
/// are NULL.
fn aggregate(
    agg: &BoundAggregate,
    members: &[&Vec<usize>],
    value: &dyn Fn(&[usize], usize, ColumnId) -> Value,
) -> Value {
    let Some((q, c)) = agg.col else {
        return Value::Int(members.len() as i64); // COUNT(*)
    };
    let vals: Vec<Value> = members
        .iter()
        .map(|t| value(t, q, c))
        .filter(|v| !v.is_null())
        .collect();
    let floats = vals.iter().any(|v| matches!(v, Value::Float(_)));
    let int_sum: i128 = vals.iter().filter_map(Value::as_i64).map(i128::from).sum();
    let float_sum: f64 = vals.iter().filter_map(Value::as_f64).sum();
    match agg.func {
        AggFunc::Count => Value::Int(vals.len() as i64),
        AggFunc::Sum if floats => Value::Float(float_sum),
        AggFunc::Sum => i64::try_from(int_sum).map_or(Value::Float(int_sum as f64), Value::Int),
        AggFunc::Avg if vals.is_empty() => Value::Null,
        AggFunc::Avg if floats => Value::Float(float_sum / vals.len() as f64),
        AggFunc::Avg => Value::Float(int_sum as f64 / vals.len() as f64),
        AggFunc::Min => vals
            .into_iter()
            .min_by(Value::cmp_total)
            .unwrap_or(Value::Null),
        AggFunc::Max => vals
            .into_iter()
            .max_by(Value::cmp_total)
            .unwrap_or(Value::Null),
    }
}

fn row_cmp(a: &[Value], b: &[Value]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.cmp_total(y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

/// The filtered quantifiers and their join predicates, each side's cells
/// read once per filtered row.
struct Join {
    /// Rows of each quantifier after its local predicates.
    sizes: Vec<usize>,
    /// Per join predicate, each side's quantifier and its cells, aligned
    /// with that quantifier's filtered rows.
    preds: Vec<[(usize, Vec<Value>); 2]>,
}

impl Join {
    /// The join predicates with both sides inside `mask`.
    fn inside(&self, mask: usize) -> impl Iterator<Item = &[(usize, Vec<Value>); 2]> {
        self.preds
            .iter()
            .filter(move |[a, b]| mask >> a.0 & 1 == 1 && mask >> b.0 & 1 == 1)
    }

    /// The quantifiers of `mask` in nested-loop order: smallest first, then
    /// always a quantifier joined to those before it when there is one.
    fn order(&self, mask: usize) -> Vec<usize> {
        let mut left: Vec<usize> = (0..self.sizes.len())
            .filter(|q| mask >> q & 1 == 1)
            .collect();
        let mut order = Vec::with_capacity(left.len());
        while !left.is_empty() {
            let joined = |q: usize| {
                self.inside(mask).any(|[a, b]| {
                    (a.0 == q && order.contains(&b.0)) || (b.0 == q && order.contains(&a.0))
                })
            };
            let pick = (0..left.len())
                .min_by_key(|&i| (!joined(left[i]), self.sizes[left[i]]))
                .unwrap();
            order.push(left.remove(pick));
        }
        order
    }

    /// Calls `emit` with every tuple of `order`'s join: `bound[q]` is the
    /// index of quantifier `q`'s row among its filtered rows. A predicate
    /// is checked at the depth where its later side is bound.
    fn walk(
        &self,
        order: &[usize],
        bound: &mut Vec<usize>,
        depth: usize,
        emit: &mut dyn FnMut(&[usize]),
    ) {
        let Some(&q) = order.get(depth) else {
            emit(bound);
            return;
        };
        let seen = &order[..=depth];
        let checks: Vec<_> = self
            .preds
            .iter()
            .filter(|[a, b]| (a.0 == q || b.0 == q) && seen.contains(&a.0) && seen.contains(&b.0))
            .collect();
        for i in 0..self.sizes[q] {
            bound[q] = i;
            if checks
                .iter()
                .all(|[a, b]| a.1[bound[a.0]].sql_eq(&b.1[bound[b.0]]))
            {
                self.walk(order, bound, depth + 1, emit);
            }
        }
    }

    /// Rows of the join of `mask`'s quantifiers: the product of its
    /// connected components' counts, each counted by nested loops.
    fn count(&self, mask: usize) -> usize {
        let mut rest = mask;
        let mut product = 1;
        while rest != 0 {
            // grow the component of the lowest quantifier left over every
            // predicate with one side in it
            let mut comp = rest & rest.wrapping_neg();
            while let Some([a, b]) = self
                .inside(mask)
                .find(|[a, b]| comp >> a.0 & 1 != comp >> b.0 & 1)
            {
                comp |= 1 << a.0 | 1 << b.0;
            }
            let mut rows = 0;
            let mut bound = vec![0; self.sizes.len()];
            self.walk(&self.order(comp), &mut bound, 0, &mut |_| rows += 1);
            product *= rows;
            rest &= !comp;
        }
        product
    }
}

impl Answer {
    /// Rows an executor must return: all of them, or LIMIT of them.
    pub fn expected_len(&self) -> usize {
        self.limit
            .map_or(self.rows.len(), |l| l.min(self.rows.len()))
    }

    /// Checks an executor's result rows against the oracle's.
    pub fn check(&self, got: &[Vec<Value>]) -> Result<(), String> {
        if got.len() != self.expected_len() {
            return Err(format!(
                "{} row(s) where the oracle has {}",
                got.len(),
                self.expected_len()
            ));
        }
        if let Some(pos) = self.order {
            for (i, (g, w)) in got.iter().zip(&self.rows).enumerate() {
                if !same(&g[pos], &w[pos]) {
                    return Err(format!(
                        "row {i}: ORDER BY key {} where the oracle has {}",
                        g[pos], w[pos]
                    ));
                }
            }
        }
        match unmatched(got, &self.rows) {
            None => Ok(()),
            Some(row) => Err(format!(
                "row {row:?} is not among the oracle's {} row(s)",
                self.rows.len()
            )),
        }
    }
}

/// Whether two values are equal, floats within [`FLOAT_TOLERANCE`]. The
/// type must match: an `Int` is never a `Float`.
pub fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x - y).abs() <= FLOAT_TOLERANCE * x.abs().max(y.abs())
        }
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Null, Value::Null) => true,
        _ => false,
    }
}

fn same_row(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
}

/// A row of `got` with no partner left in `all`, matching each row of
/// `got` to a distinct row of `all`; `None` when `got` is a sub-multiset.
fn unmatched<'a>(got: &'a [Vec<Value>], all: &[Vec<Value>]) -> Option<&'a Vec<Value>> {
    fn sorted(rows: &[Vec<Value>]) -> Vec<&Vec<Value>> {
        let mut v: Vec<&Vec<Value>> = rows.iter().collect();
        v.sort_by(|a, b| row_cmp(a, b));
        v
    }
    // equal sizes compare sorted, pairwise; the greedy matching below also
    // absorbs float sums whose last bits reorder the sort
    if got.len() == all.len()
        && sorted(got)
            .iter()
            .zip(sorted(all))
            .all(|(x, y)| same_row(x, y))
    {
        return None;
    }
    let mut used = vec![false; all.len()];
    for row in got {
        match (0..all.len()).find(|&i| !used[i] && same_row(row, &all[i])) {
            Some(partner) => used[partner] = true,
            None => return Some(row),
        }
    }
    None
}
