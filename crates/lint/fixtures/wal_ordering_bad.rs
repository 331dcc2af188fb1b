//! wal-ordering bad fixture: durable mutators that mutate before (or
//! without) appending to the write-ahead log. Every function here must be
//! flagged.

struct Db {
    wal: Option<Wal>,
    catalog: Catalog,
    tables: Vec<Table>,
    clock: u64,
}

impl Db {
    /// Mutates the catalog first, then logs: a crash between the two
    /// applies the DDL in memory with no durable record of it.
    fn create_table(&mut self, name: &str, schema: Schema) -> Result<TableId> {
        let id = self.catalog.create(name, schema)?;
        self.tables.push(Table::new(id));
        self.wal_append(&WalRecord::CreateTable {
            name: name.to_string(),
        })?;
        Ok(id)
    }

    /// Inserts every row before the record is durable.
    fn load_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        let t = self.table_mut(table)?;
        for row in &rows {
            t.insert(row.clone())?;
        }
        self.wal_append(&WalRecord::LoadRows {
            table: table.to_string(),
        })?;
        Ok(rows.len())
    }

    /// Never logs at all: the statement vanishes from a recovered log.
    fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt = parse(sql)?;
        self.clock += 1;
        self.run(stmt)
    }

    /// Bumps the durable clock before the record exists.
    fn runstats_all(&mut self) -> Result<()> {
        self.clock += 1;
        self.wal_append(&WalRecord::RunstatsAll)?;
        self.collect_general()
    }

    /// Ticks a store's clock before the record exists.
    fn migrate_statistics(&mut self) -> usize {
        let clock = self.store.tick();
        wal_append(&self.env, &mut self.store, &WalRecord::MigrateStats);
        self.migrate_into(clock)
    }
}
