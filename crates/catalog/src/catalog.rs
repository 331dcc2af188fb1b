//! The catalog proper: name resolution and statistics storage.

use crate::stats::{ColumnStats, TableStats};
use jits_common::hash::FastMap;
use jits_common::{ColumnId, JitsError, Result, Schema, TableId};

/// Catalog entry for one table.
#[derive(Debug, Clone)]
pub struct CatalogTable {
    /// Table name (lower-cased).
    pub name: String,
    /// Column layout.
    pub schema: Schema,
    /// General table statistics, if ever collected.
    pub table_stats: Option<TableStats>,
    /// General per-column statistics (parallel to the schema).
    pub column_stats: Vec<Option<ColumnStats>>,
    /// Primary-key column, if declared (enables PK–FK join estimation).
    pub primary_key: Option<ColumnId>,
    /// Columns with secondary indexes (mirrors storage, for planning).
    pub indexed_columns: Vec<ColumnId>,
}

/// Name → metadata → statistics mapping for the whole database.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: Vec<CatalogTable>,
    /// Probe-only, never iterated.
    by_name: FastMap<String, TableId>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a new table; names are case-insensitive and unique.
    pub fn register_table(&mut self, name: &str, schema: Schema) -> Result<TableId> {
        let key = name.to_ascii_lowercase();
        if self.by_name.contains_key(&key) {
            return Err(JitsError::AlreadyExists(format!("table '{name}'")));
        }
        let id = TableId(self.tables.len() as u32);
        let n_cols = schema.len();
        self.tables.push(CatalogTable {
            name: key.clone(),
            schema,
            table_stats: None,
            column_stats: vec![None; n_cols],
            primary_key: None,
            indexed_columns: Vec::new(),
        });
        self.by_name.insert(key, id);
        Ok(id)
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Resolves a table name.
    pub fn resolve(&self, name: &str) -> Option<TableId> {
        self.by_name.get(&name.to_ascii_lowercase()).copied()
    }

    /// Resolves a table name or errors.
    pub fn require(&self, name: &str) -> Result<TableId> {
        self.resolve(name)
            .ok_or_else(|| JitsError::NotFound(format!("table '{name}'")))
    }

    /// Catalog entry for `id`.
    pub fn table(&self, id: TableId) -> Option<&CatalogTable> {
        self.tables.get(id.index())
    }

    /// Column layout of `id`; a miss is an internal error (ids come from
    /// [`Catalog::require`] or a bound quantifier).
    pub fn schema(&self, id: TableId) -> Result<&Schema> {
        self.table(id)
            .map(|t| &t.schema)
            .ok_or_else(|| JitsError::internal(format!("catalog entry missing for {id:?}")))
    }

    /// Mutable catalog entry for `id`.
    pub fn table_mut(&mut self, id: TableId) -> Option<&mut CatalogTable> {
        self.tables.get_mut(id.index())
    }

    /// All table ids.
    pub fn table_ids(&self) -> impl Iterator<Item = TableId> + '_ {
        (0..self.tables.len()).map(|i| TableId(i as u32))
    }

    /// Installs general statistics for a table.
    pub fn set_stats(
        &mut self,
        id: TableId,
        table_stats: TableStats,
        column_stats: Vec<ColumnStats>,
    ) -> Result<()> {
        let entry = self
            .tables
            .get_mut(id.index())
            .ok_or_else(|| JitsError::NotFound(format!("table {id}")))?;
        if column_stats.len() != entry.schema.len() {
            return Err(JitsError::internal(format!(
                "stats arity {} != schema arity {} for '{}'",
                column_stats.len(),
                entry.schema.len(),
                entry.name
            )));
        }
        entry.table_stats = Some(table_stats);
        entry.column_stats = column_stats.into_iter().map(Some).collect();
        Ok(())
    }

    /// Drops all statistics (the paper's "no initial statistics" setting).
    pub fn clear_stats(&mut self) {
        for t in &mut self.tables {
            t.table_stats = None;
            for c in &mut t.column_stats {
                *c = None;
            }
        }
    }

    /// Statistics row count for a table, if known.
    pub fn row_count(&self, id: TableId) -> Option<f64> {
        self.table(id)?.table_stats.as_ref().map(|s| s.row_count)
    }

    /// General column statistics, if collected.
    pub fn column_stats(&self, id: TableId, col: ColumnId) -> Option<&ColumnStats> {
        self.table(id)?.column_stats.get(col.index())?.as_ref()
    }

    /// Declares a primary key (informs join selectivity estimation).
    pub fn set_primary_key(&mut self, id: TableId, col: ColumnId) -> Result<()> {
        let t = self
            .tables
            .get_mut(id.index())
            .ok_or_else(|| JitsError::NotFound(format!("table {id}")))?;
        t.primary_key = Some(col);
        Ok(())
    }

    /// Records that a secondary index exists on `col`.
    pub fn add_index(&mut self, id: TableId, col: ColumnId) -> Result<()> {
        let t = self
            .tables
            .get_mut(id.index())
            .ok_or_else(|| JitsError::NotFound(format!("table {id}")))?;
        if !t.indexed_columns.contains(&col) {
            t.indexed_columns.push(col);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_common::DataType;

    fn schema() -> Schema {
        Schema::from_pairs(&[("id", DataType::Int), ("make", DataType::Str)])
    }

    #[test]
    fn register_and_resolve() {
        let mut c = Catalog::new();
        let id = c.register_table("Car", schema()).unwrap();
        assert_eq!(c.resolve("CAR"), Some(id));
        assert_eq!(c.resolve("car"), Some(id));
        assert!(c.resolve("owner").is_none());
        assert!(c.require("owner").is_err());
        assert!(c.register_table("car", schema()).is_err());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn stats_lifecycle() {
        let mut c = Catalog::new();
        let id = c.register_table("car", schema()).unwrap();
        assert_eq!(c.row_count(id), None);
        let ts = TableStats {
            row_count: 42.0,
            collected_at: 1,
        };
        let cs: Vec<ColumnStats> = (0..2)
            .map(|i| ColumnStats {
                dtype: if i == 0 { DataType::Int } else { DataType::Str },
                min: None,
                max: None,
                distinct: 1.0,
                null_count: 0.0,
                row_count: 42.0,
                mcv: vec![],
                histogram: jits_histogram::EquiDepth::build(vec![], 4),
                collected_at: 1,
            })
            .collect();
        c.set_stats(id, ts, cs).unwrap();
        assert_eq!(c.row_count(id), Some(42.0));
        assert!(c.column_stats(id, ColumnId(1)).is_some());
        c.clear_stats();
        assert_eq!(c.row_count(id), None);
        assert!(c.column_stats(id, ColumnId(1)).is_none());
    }

    #[test]
    fn stats_arity_checked() {
        let mut c = Catalog::new();
        let id = c.register_table("car", schema()).unwrap();
        let ts = TableStats {
            row_count: 1.0,
            collected_at: 0,
        };
        assert!(c.set_stats(id, ts, vec![]).is_err());
    }

    #[test]
    fn keys_and_indexes() {
        let mut c = Catalog::new();
        let id = c.register_table("car", schema()).unwrap();
        c.set_primary_key(id, ColumnId(0)).unwrap();
        c.add_index(id, ColumnId(0)).unwrap();
        c.add_index(id, ColumnId(0)).unwrap();
        let t = c.table(id).unwrap();
        assert_eq!(t.primary_key, Some(ColumnId(0)));
        assert_eq!(t.indexed_columns, vec![ColumnId(0)]);
    }
}
