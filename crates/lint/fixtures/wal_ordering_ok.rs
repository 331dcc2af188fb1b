//! wal-ordering clean twin: the same durable mutators, each appending its
//! write-ahead-log record before the first in-memory mutation. Nothing here
//! may be flagged.

struct Db {
    wal: Option<Wal>,
    catalog: Catalog,
    tables: Vec<Table>,
    clock: u64,
}

impl Db {
    /// Write-ahead: a failed append aborts before any mutation, a crash
    /// after the append replays the DDL.
    fn create_table(&mut self, name: &str, schema: Schema) -> Result<TableId> {
        self.wal_append(&WalRecord::CreateTable {
            name: name.to_string(),
        })?;
        let id = self.catalog.create(name, schema)?;
        self.tables.push(Table::new(id));
        Ok(id)
    }

    /// The record is durable before the first row lands.
    fn load_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        self.wal_append(&WalRecord::LoadRows {
            table: table.to_string(),
        })?;
        let t = self.table_mut(table)?;
        let n = rows.len();
        for row in rows {
            t.insert(row)?;
        }
        Ok(n)
    }

    /// Statement-level logical logging: the statement text is durable
    /// before the clock ticks or any table changes.
    fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt = parse(sql)?;
        self.wal_append(&WalRecord::Statement {
            sql: sql.to_string(),
        })?;
        self.clock += 1;
        self.run(stmt)
    }

    /// Direct appends on the log handle count, too.
    fn runstats_all(&mut self) -> Result<()> {
        if let Some(wal) = self.wal.as_mut() {
            wal.append(&WalRecord::RunstatsAll)?;
        }
        self.clock += 1;
        self.collect_general()
    }

    /// A front-end delegating to the shared pipeline: the callee is a
    /// durable entry point held to the same rule.
    fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        pipeline::create_index(&self.env, &mut self.store, table, column)
    }

    /// A store's clock tick after the record is durable.
    fn migrate_statistics(&mut self) -> usize {
        wal_append(&self.env, &mut self.store, &WalRecord::MigrateStats);
        let clock = self.store.tick();
        self.migrate_into(clock)
    }
}
