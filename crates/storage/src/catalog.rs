//! Catalog: tables, columns and per-column statistics.
//!
//! Statistics are the ones a real optimizer keeps (`pg_statistic`-style):
//! row counts, page counts, per-column distinct counts, numeric ranges,
//! null fractions, physical correlation. They drive both selectivity
//! estimation and the §V-A cost features.

use crate::StorageError;
use autoindex_support::hash::{fnv1a, fnv1a_from, fnv1a_step};
use autoindex_support::json::{obj, Json, JsonError};
use std::collections::HashMap;
use std::sync::Arc;

/// Logical page size in bytes, matching openGauss/PostgreSQL's 8 KiB.
pub const PAGE_SIZE: u64 = 8192;

/// Heap page fill factor: usable fraction of each page.
pub const HEAP_FILL: f64 = 0.9;

/// The SQL type class of a column (only what selectivity needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    Int,
    Float,
    Text,
    Timestamp,
}

impl ColumnType {
    /// Whether range selectivity can be interpolated from min/max.
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            ColumnType::Int | ColumnType::Float | ColumnType::Timestamp
        )
    }

    /// The JSON name of the variant (matches the former serde derive).
    pub fn as_str(self) -> &'static str {
        match self {
            ColumnType::Int => "Int",
            ColumnType::Float => "Float",
            ColumnType::Text => "Text",
            ColumnType::Timestamp => "Timestamp",
        }
    }

    /// Parse a variant name written by [`ColumnType::as_str`].
    pub fn parse(s: &str) -> Option<ColumnType> {
        match s {
            "Int" => Some(ColumnType::Int),
            "Float" => Some(ColumnType::Float),
            "Text" => Some(ColumnType::Text),
            "Timestamp" => Some(ColumnType::Timestamp),
            _ => None,
        }
    }
}

/// Per-column statistics (the `pg_statistic` subset the model needs).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct values.
    pub ndv: f64,
    /// Minimum value (numeric domains only; meaningless for text).
    pub min: f64,
    /// Maximum value (numeric domains only).
    pub max: f64,
    /// Fraction of NULLs.
    pub null_frac: f64,
    /// Physical ordering correlation in `[-1, 1]`; `1.0` means the heap is
    /// stored in this column's order (cheap range index scans).
    pub correlation: f64,
    /// Optional equi-depth histogram; when present, range selectivity uses
    /// it instead of min/max interpolation (essential for skewed columns).
    pub histogram: Option<crate::histogram::Histogram>,
}

impl Default for ColumnStats {
    fn default() -> Self {
        ColumnStats {
            ndv: 100.0,
            min: 0.0,
            max: 1_000_000.0,
            null_frac: 0.0,
            correlation: 0.0,
            histogram: None,
        }
    }
}

/// A column definition: name, type, byte width and statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub name: String,
    pub ty: ColumnType,
    /// Average stored width in bytes.
    pub width: u32,
    pub stats: ColumnStats,
}

impl Column {
    /// Shorthand for an integer column with `ndv` distinct values over
    /// `[0, ndv)`.
    pub fn int(name: impl Into<String>, ndv: u64) -> Self {
        Column {
            name: name.into(),
            ty: ColumnType::Int,
            width: 8,
            stats: ColumnStats {
                ndv: ndv.max(1) as f64,
                min: 0.0,
                max: ndv.max(1) as f64,
                ..ColumnStats::default()
            },
        }
    }

    /// Shorthand for a float column over `[min, max]`.
    pub fn float(name: impl Into<String>, ndv: u64, min: f64, max: f64) -> Self {
        Column {
            name: name.into(),
            ty: ColumnType::Float,
            width: 8,
            stats: ColumnStats {
                ndv: ndv.max(1) as f64,
                min,
                max,
                ..ColumnStats::default()
            },
        }
    }

    /// Shorthand for a text column with `ndv` distinct values and average
    /// width `width`.
    pub fn text(name: impl Into<String>, ndv: u64, width: u32) -> Self {
        Column {
            name: name.into(),
            ty: ColumnType::Text,
            width,
            stats: ColumnStats {
                ndv: ndv.max(1) as f64,
                ..ColumnStats::default()
            },
        }
    }

    /// Set the physical correlation (builder-style).
    pub fn with_correlation(mut self, corr: f64) -> Self {
        self.stats.correlation = corr.clamp(-1.0, 1.0);
        self
    }

    /// Set the null fraction (builder-style).
    pub fn with_null_frac(mut self, frac: f64) -> Self {
        self.stats.null_frac = frac.clamp(0.0, 1.0);
        self
    }

    /// Attach an equi-depth histogram built from sampled values
    /// (builder-style). Also tightens min/max to the sample range.
    pub fn with_histogram(mut self, samples: Vec<f64>, buckets: usize) -> Self {
        if let Some(h) = crate::histogram::Histogram::from_samples(samples, buckets) {
            self.stats.min = h.min();
            self.stats.max = h.max();
            self.stats.histogram = Some(h);
        }
        self
    }
}

/// A table: columns, cardinality and derived physical geometry.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub columns: Vec<Column>,
    /// Current row count (grows under INSERT workloads).
    pub rows: u64,
    /// Number of horizontal partitions (1 = unpartitioned). Partitioned
    /// tables distinguish GLOBAL vs LOCAL indexes (§III "index type
    /// selection for the data partitioning scenarios").
    pub partitions: u32,
    /// Name of the partitioning column, if partitioned.
    pub partition_key: Option<String>,
    /// Columns of the primary key (always indexed by `Default` setups).
    pub primary_key: Vec<String>,
    column_index: HashMap<String, usize>,
    /// [`Catalog::version`] as of this table's last mutation.
    stamp: u64,
}

/// Contents only: like [`Catalog::version`], the stamp is history.
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.columns == other.columns
            && self.rows == other.rows
            && self.partitions == other.partitions
            && self.partition_key == other.partition_key
            && self.primary_key == other.primary_key
    }
}

impl Table {
    /// The owning catalog's [`Catalog::version`] when this table last
    /// changed (registered, edited through [`Catalog::table_mut`], grown):
    /// two reads of one catalog's table returning the same stamp observed
    /// identical statistics. What is derived from one table's statistics —
    /// a compiled template's selectivity program — is kept against it, so
    /// growth of another table invalidates nothing.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Average row width in bytes (sum of column widths + tuple header).
    pub fn row_width(&self) -> u64 {
        const TUPLE_HEADER: u64 = 24;
        TUPLE_HEADER + self.columns.iter().map(|c| c.width as u64).sum::<u64>()
    }

    /// Heap pages occupied by this table.
    pub fn pages(&self) -> u64 {
        let per_page = ((PAGE_SIZE as f64 * HEAP_FILL) / self.row_width() as f64).max(1.0);
        (self.rows as f64 / per_page).ceil() as u64
    }

    /// Total heap bytes.
    pub fn bytes(&self) -> u64 {
        self.pages() * PAGE_SIZE
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.column_index.get(name).map(|&i| &self.columns[i])
    }

    /// Where `name` sits in [`Table::columns`].
    pub(crate) fn column_position(&self, name: &str) -> Option<usize> {
        self.column_index.get(name).copied()
    }

    /// Mutable column lookup.
    pub fn column_mut(&mut self, name: &str) -> Option<&mut Column> {
        let i = *self.column_index.get(name)?;
        Some(&mut self.columns[i])
    }

    /// Whether `columns` is exactly the primary key prefix (those lookups
    /// are always index-backed even in the Default configuration).
    pub fn is_primary_prefix(&self, columns: &[String]) -> bool {
        !columns.is_empty()
            && columns.len() <= self.primary_key.len()
            && columns.iter().zip(&self.primary_key).all(|(a, b)| a == b)
    }
}

/// Builder for [`Table`], enforcing invariants at `build` time.
#[derive(Debug, Clone)]
pub struct TableBuilder {
    name: String,
    columns: Vec<Column>,
    rows: u64,
    partitions: u32,
    partition_key: Option<String>,
    primary_key: Vec<String>,
}

impl TableBuilder {
    /// Start building a table with `rows` rows.
    pub fn new(name: impl Into<String>, rows: u64) -> Self {
        TableBuilder {
            name: name.into(),
            columns: Vec::new(),
            rows,
            partitions: 1,
            partition_key: None,
            primary_key: Vec::new(),
        }
    }

    /// Add a column.
    pub fn column(mut self, column: Column) -> Self {
        self.columns.push(column);
        self
    }

    /// Declare the primary key columns (must exist).
    pub fn primary_key(mut self, columns: &[&str]) -> Self {
        self.primary_key = columns.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Partition the table into `n` partitions on `key`.
    pub fn partitioned(mut self, n: u32, key: &str) -> Self {
        self.partitions = n.max(1);
        self.partition_key = Some(key.to_string());
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<Table, StorageError> {
        if self.columns.is_empty() {
            return Err(StorageError::Invalid(format!(
                "table {:?} has no columns",
                self.name
            )));
        }
        let mut column_index = HashMap::with_capacity(self.columns.len());
        for (i, c) in self.columns.iter().enumerate() {
            if column_index.insert(c.name.clone(), i).is_some() {
                return Err(StorageError::Invalid(format!(
                    "duplicate column {:?} in table {:?}",
                    c.name, self.name
                )));
            }
        }
        for pk in &self.primary_key {
            if !column_index.contains_key(pk) {
                return Err(StorageError::UnknownColumn {
                    table: self.name.clone(),
                    column: pk.clone(),
                });
            }
        }
        if let Some(k) = &self.partition_key {
            if !column_index.contains_key(k) {
                return Err(StorageError::UnknownColumn {
                    table: self.name.clone(),
                    column: k.clone(),
                });
            }
        }
        Ok(Table {
            name: self.name,
            columns: self.columns,
            rows: self.rows,
            partitions: self.partitions,
            partition_key: self.partition_key,
            primary_key: self.primary_key,
            column_index,
            stamp: 0,
        })
    }
}

/// The catalog: all tables by name.
///
/// Carries a monotone [`Catalog::version`] that bumps on every mutation
/// (table registration, statistics edits via [`Catalog::table_mut`], data
/// growth). Consumers that memoize anything derived from table statistics
/// — the estimator's cost cache in particular — compare versions to detect
/// staleness without diffing tables.
///
/// Tables sit behind `Arc`s and are copied on write, so a clone of the
/// catalog — what every [`crate::SimDb::snapshot`] takes — copies one
/// reference count per table, and a clone taken before a mutation keeps
/// reading the table as it was: [`Catalog::add_table`],
/// [`Catalog::table_mut`] and [`Catalog::grow_table`] replace or copy the
/// one table they touch, never one a clone still shares.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<Arc<str>, Arc<Table>>,
    /// Mutation counter; not part of equality or serialization.
    version: u64,
}

/// Equality compares the *contents* (tables) only: a catalog that
/// round-trips through JSON or is rebuilt table-by-table is equal to the
/// original even though its mutation counter differs.
impl PartialEq for Catalog {
    fn eq(&self, other: &Self) -> bool {
        self.tables == other.tables
    }
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Mutation counter: bumps on [`Catalog::add_table`],
    /// [`Catalog::table_mut`] and [`Catalog::grow_table`]. Two reads
    /// returning the same version are guaranteed to have observed
    /// identical statistics.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// A hash of what a statement's shape can read of this catalog: each
    /// table's name, and its columns' names and types in column order. No
    /// statistic enters it, so catalogs of one schema share it whatever
    /// their sizes. Tables combine in no order (the map keeps none).
    pub fn schema_fingerprint(&self) -> u64 {
        self.tables().fold(0, |schema, t| {
            let table = t.columns.iter().fold(fnv1a(t.name.as_bytes()), |h, c| {
                let h = fnv1a_from(fnv1a_step(h, 0), c.name.as_bytes());
                fnv1a_from(fnv1a_step(h, 0), c.ty.as_str().as_bytes())
            });
            schema.wrapping_add(table)
        })
    }

    /// Register a table; replaces any previous definition with the name.
    pub fn add_table(&mut self, mut table: Table) {
        self.version += 1;
        table.stamp = self.version;
        // (`insert` keeps the key of a table it replaces: the name stays
        // the one `shared_table` has handed out.)
        let name: Arc<str> = table.name.as_str().into();
        self.tables.insert(name, Arc::new(table));
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(|t| &**t)
    }

    /// Look up a table with its name, both as this catalog shares them: a
    /// holder of the clones reads the table as it is now whatever the
    /// catalog does next, and copies nothing.
    pub(crate) fn shared_table(&self, name: &str) -> Option<(&Arc<str>, &Arc<Table>)> {
        self.tables.get_key_value(name)
    }

    /// Look up a table or error.
    pub fn require_table(&self, name: &str) -> Result<&Table, StorageError> {
        self.table(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Mutable table lookup. Conservatively counts as a mutation (bumps
    /// [`Catalog::version`]) even if the caller ends up not writing, and
    /// copies the table first when a clone of the catalog shares it.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.version += 1;
        let table = Arc::make_mut(self.tables.get_mut(name)?);
        table.stamp = self.version;
        Some(table)
    }

    /// All tables (iteration order unspecified).
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values().map(|t| &**t)
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog has no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Grow a table's row count by `delta` rows, scaling NDVs of its
    /// high-cardinality columns proportionally (models INSERT-driven data
    /// growth in the Figure 9 dynamic experiment). Returns the table's new
    /// row count.
    pub fn grow_table(&mut self, name: &str, delta: u64) -> Result<u64, StorageError> {
        self.grow_table_from(name, delta).map(|(_, t)| t.rows)
    }

    /// [`Catalog::grow_table`] in one lookup for a caller that keeps sizes
    /// current: the heap bytes the table had, and the table as grown.
    pub(crate) fn grow_table_from(
        &mut self,
        name: &str,
        delta: u64,
    ) -> Result<(u64, &Table), StorageError> {
        let t = self
            .tables
            .get_mut(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
        let t = Arc::make_mut(t);
        let bytes_before = t.bytes();
        self.version += 1;
        t.stamp = self.version;
        if t.rows == 0 {
            t.rows = delta;
            return Ok((bytes_before, t));
        }
        let factor = (t.rows + delta) as f64 / t.rows as f64;
        t.rows += delta;
        for c in &mut t.columns {
            // Only near-unique columns grow in NDV; low-cardinality
            // categorical columns keep their domain.
            if c.stats.ndv > 0.5 * (t.rows as f64 / factor) {
                c.stats.ndv = (c.stats.ndv * factor).min(t.rows as f64);
                if c.ty.is_numeric() {
                    c.stats.max *= factor;
                }
            }
        }
        Ok((bytes_before, t))
    }

    /// Serialise to compact JSON (deterministic key order).
    ///
    /// The format matches what the previous serde derive produced for the
    /// shipped schema files (`examples/data/sample_schema.json`): enum
    /// variants as strings, `Option::None` as `null`, maps as objects.
    /// The internal column index is *not* written; [`Catalog::from_json`]
    /// rebuilds it (and ignores a `column_index` key in legacy files).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Serialise to pretty-printed JSON (for schema files meant for human
    /// editing).
    pub fn to_json_pretty(&self) -> String {
        self.to_json_value().pretty()
    }

    fn to_json_value(&self) -> Json {
        let tables: std::collections::BTreeMap<String, Json> = self
            .tables
            .iter()
            .map(|(name, t)| (name.to_string(), table_to_json(t)))
            .collect();
        obj([("tables", Json::Object(tables))])
    }

    /// Load a catalog from JSON written by [`Catalog::to_json`] (or by the
    /// previous serde-based serializer). Column indexes are rebuilt and the
    /// table invariants re-validated through [`TableBuilder`].
    pub fn from_json(s: &str) -> Result<Catalog, JsonError> {
        let bad = |message: String| JsonError { offset: 0, message };
        let v = Json::parse(s)?;
        let tables = v
            .get("tables")
            .and_then(Json::as_object)
            .ok_or_else(|| bad("catalog JSON: missing 'tables' object".into()))?;
        let mut catalog = Catalog::new();
        for (name, tv) in tables {
            let table = table_from_json(name, tv).map_err(bad)?;
            catalog.add_table(table);
        }
        Ok(catalog)
    }
}

fn table_to_json(t: &Table) -> Json {
    obj([
        ("name", Json::from(t.name.as_str())),
        (
            "columns",
            Json::Array(t.columns.iter().map(column_to_json).collect()),
        ),
        ("rows", Json::from(t.rows)),
        ("partitions", Json::from(t.partitions as u64)),
        ("partition_key", Json::from(t.partition_key.as_deref())),
        (
            "primary_key",
            Json::Array(
                t.primary_key
                    .iter()
                    .map(|c| Json::from(c.as_str()))
                    .collect(),
            ),
        ),
    ])
}

fn column_to_json(c: &Column) -> Json {
    let hist = match &c.stats.histogram {
        Some(h) => obj([(
            "bounds",
            Json::Array(h.bounds().iter().map(|b| Json::Number(*b)).collect()),
        )]),
        None => Json::Null,
    };
    obj([
        ("name", Json::from(c.name.as_str())),
        ("ty", Json::from(c.ty.as_str())),
        ("width", Json::from(c.width as u64)),
        (
            "stats",
            obj([
                ("ndv", Json::Number(c.stats.ndv)),
                ("min", Json::Number(c.stats.min)),
                ("max", Json::Number(c.stats.max)),
                ("null_frac", Json::Number(c.stats.null_frac)),
                ("correlation", Json::Number(c.stats.correlation)),
                ("histogram", hist),
            ]),
        ),
    ])
}

fn table_from_json(name: &str, v: &Json) -> Result<Table, String> {
    let rows = v
        .get("rows")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("table {name:?}: missing 'rows'"))?;
    let columns = v
        .get("columns")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("table {name:?}: missing 'columns'"))?;
    let mut b = TableBuilder::new(v.get("name").and_then(Json::as_str).unwrap_or(name), rows);
    for cv in columns {
        b = b.column(column_from_json(name, cv)?);
    }
    if let Some(pk) = v.get("primary_key").and_then(Json::as_array) {
        let names: Vec<&str> = pk.iter().filter_map(Json::as_str).collect();
        b = b.primary_key(&names);
    }
    let partitions = v
        .get("partitions")
        .and_then(Json::as_u64)
        .unwrap_or(1)
        .max(1) as u32;
    if let Some(key) = v
        .get("partition_key")
        .and_then(Json::as_str)
        .filter(|_| partitions > 1)
    {
        b = b.partitioned(partitions, key);
    }
    b.build().map_err(|e| format!("table {name:?}: {e}"))
}

fn column_from_json(table: &str, v: &Json) -> Result<Column, String> {
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("table {table:?}: column missing 'name'"))?;
    let ty = v
        .get("ty")
        .and_then(Json::as_str)
        .and_then(ColumnType::parse)
        .ok_or_else(|| format!("table {table:?} column {name:?}: bad 'ty'"))?;
    let width =
        v.get("width")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("table {table:?} column {name:?}: bad 'width'"))? as u32;
    let sv = v
        .get("stats")
        .ok_or_else(|| format!("table {table:?} column {name:?}: missing 'stats'"))?;
    let stat = |key: &str| -> Result<f64, String> {
        sv.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("table {table:?} column {name:?}: bad stats field '{key}'"))
    };
    let histogram = match sv.get("histogram") {
        None | Some(Json::Null) => None,
        Some(h) => {
            let bounds: Vec<f64> = h
                .get("bounds")
                .and_then(Json::as_array)
                .map(|a| a.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default();
            Some(
                crate::histogram::Histogram::from_bounds(bounds).ok_or_else(|| {
                    format!("table {table:?} column {name:?}: invalid histogram bounds")
                })?,
            )
        }
    };
    Ok(Column {
        name: name.to_string(),
        ty,
        width,
        stats: ColumnStats {
            ndv: stat("ndv")?,
            min: stat("min")?,
            max: stat("max")?,
            null_frac: stat("null_frac")?,
            correlation: stat("correlation")?,
            histogram,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person() -> Table {
        TableBuilder::new("person", 100_000)
            .column(Column::int("id", 100_000))
            .column(Column::text("name", 90_000, 16))
            .column(Column::float("temperature", 300, 35.0, 42.0))
            .column(Column::text("community", 50, 12))
            .primary_key(&["id"])
            .build()
            .unwrap()
    }

    #[test]
    fn row_width_and_pages() {
        let t = person();
        assert_eq!(t.row_width(), 24 + 8 + 16 + 8 + 12);
        let per_page = 8192.0 * 0.9 / t.row_width() as f64;
        assert_eq!(t.pages(), (100_000.0 / per_page).ceil() as u64);
        assert_eq!(t.bytes(), t.pages() * PAGE_SIZE);
    }

    /// Statistics and the order tables were added in leave the schema
    /// fingerprint alone; a renamed column or a changed type moves it.
    #[test]
    fn the_schema_fingerprint_reads_names_and_types_only() {
        let town = || {
            TableBuilder::new("town", 40)
                .column(Column::int("id", 40))
                .build()
                .unwrap()
        };
        let mut a = Catalog::new();
        a.add_table(person());
        a.add_table(town());
        let mut b = Catalog::new();
        b.add_table(town());
        b.add_table(person());
        b.grow_table("person", 50_000).unwrap();
        b.table_mut("person").unwrap().columns[2].stats.max = 99.0;
        assert_eq!(a.schema_fingerprint(), b.schema_fingerprint());

        let mut renamed = a.clone();
        renamed.table_mut("person").unwrap().columns[3].name = "district".into();
        let mut retyped = a.clone();
        retyped.table_mut("person").unwrap().columns[0].ty = ColumnType::Text;
        for other in [renamed, retyped] {
            assert_ne!(a.schema_fingerprint(), other.schema_fingerprint());
        }
    }

    #[test]
    fn column_lookup() {
        let t = person();
        assert_eq!(t.column("temperature").unwrap().ty, ColumnType::Float);
        assert!(t.column("nope").is_none());
    }

    #[test]
    fn primary_prefix_detection() {
        let t = person();
        assert!(t.is_primary_prefix(&["id".to_string()]));
        assert!(!t.is_primary_prefix(&["name".to_string()]));
        assert!(!t.is_primary_prefix(&[]));
    }

    #[test]
    fn builder_rejects_duplicate_columns() {
        let r = TableBuilder::new("t", 10)
            .column(Column::int("a", 10))
            .column(Column::int("a", 10))
            .build();
        assert!(matches!(r, Err(StorageError::Invalid(_))));
    }

    #[test]
    fn builder_rejects_unknown_pk() {
        let r = TableBuilder::new("t", 10)
            .column(Column::int("a", 10))
            .primary_key(&["b"])
            .build();
        assert!(matches!(r, Err(StorageError::UnknownColumn { .. })));
    }

    #[test]
    fn builder_rejects_empty_table() {
        assert!(TableBuilder::new("t", 10).build().is_err());
    }

    #[test]
    fn version_bumps_on_every_mutation_but_not_reads() {
        let mut c = Catalog::new();
        assert_eq!(c.version(), 0);
        c.add_table(person());
        let v1 = c.version();
        assert!(v1 > 0);
        let _ = c.table("person");
        let _ = c.require_table("person");
        let _ = c.tables().count();
        assert_eq!(c.version(), v1, "reads must not bump the version");
        let _ = c.table_mut("person");
        let v2 = c.version();
        assert!(v2 > v1);
        c.grow_table("person", 10).unwrap();
        assert!(c.version() > v2);
        // Equality ignores the version: same contents, different history.
        let mut c2 = Catalog::new();
        c2.add_table(person());
        c2.grow_table("person", 10).unwrap();
        let _ = c2.table_mut("person");
        let _ = c2.table_mut("person");
        assert_ne!(c.version(), c2.version());
        assert_eq!(c, c2);
    }

    /// What a reader sees of `person`: rows, the NDV and range of `id`,
    /// its histogram and the table's stamp.
    fn reading(c: &Catalog) -> (u64, f64, f64, Option<crate::histogram::Histogram>, u64) {
        let t = c.table("person").unwrap();
        let id = &t.column("id").unwrap().stats;
        (t.rows, id.ndv, id.max, id.histogram.clone(), t.stamp())
    }

    /// `person` with a histogram under `id`, beside an `other` table no
    /// test below touches.
    fn shared_catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut t = person();
        let samples = (0..200).map(f64::from).collect();
        *t.column_mut("id").unwrap() = Column::int("id", 100_000).with_histogram(samples, 8);
        c.add_table(t);
        c.add_table(
            TableBuilder::new("other", 7)
                .column(Column::int("x", 7))
                .build()
                .unwrap(),
        );
        c
    }

    /// A clone shares every table with the catalog it was taken from, and
    /// each writer copies — or replaces — only the table it is given: the
    /// clone keeps reading the old rows, NDVs, histogram and stamp, the
    /// live side reads the new ones, and the untouched table stays one
    /// allocation between them.
    #[test]
    fn a_clone_taken_before_a_write_keeps_reading_the_old_table() {
        type Write = fn(&mut Catalog);
        let writes: [(&str, Write); 3] = [
            ("grow_table", |c| {
                c.grow_table("person", 50_000).unwrap();
            }),
            ("table_mut", |c| {
                let t = c.table_mut("person").unwrap();
                t.rows = 5;
                let id = &mut t.column_mut("id").unwrap().stats;
                (id.ndv, id.max, id.histogram) = (5.0, 5.0, None);
            }),
            ("add_table", |c| {
                c.add_table(
                    TableBuilder::new("person", 3)
                        .column(Column::int("id", 3))
                        .build()
                        .unwrap(),
                );
            }),
        ];
        for (name, write) in writes {
            let mut live = shared_catalog();
            let snapshot = live.clone();
            let before = reading(&live);
            assert!(before.3.is_some(), "the fixture has a histogram");
            let shared = |a: &Catalog, b: &Catalog, t: &str| {
                Arc::ptr_eq(a.shared_table(t).unwrap().1, b.shared_table(t).unwrap().1)
            };
            assert!(shared(&live, &snapshot, "person") && shared(&live, &snapshot, "other"));

            write(&mut live);
            assert_eq!(reading(&snapshot), before, "{name}: the clone moved");
            let after = reading(&live);
            assert!(
                after.0 != before.0 && after.1 != before.1 && after.2 != before.2,
                "{name}: the live side reads the write"
            );
            assert!(after.4 > before.4, "{name}: the stamp moved with it");
            assert!(!shared(&live, &snapshot, "person"), "{name}: copied");
            assert!(shared(&live, &snapshot, "other"), "{name}: untouched");
            assert_eq!(snapshot.version() + 1, live.version());

            // Nobody shares the live table now: a second write is in place.
            let at = Arc::as_ptr(live.shared_table("person").unwrap().1);
            live.grow_table("person", 1).unwrap();
            assert_eq!(at, Arc::as_ptr(live.shared_table("person").unwrap().1));
        }
    }

    #[test]
    fn builder_rejects_unknown_partition_key() {
        let r = TableBuilder::new("t", 10)
            .column(Column::int("a", 10))
            .partitioned(4, "b")
            .build();
        assert!(matches!(r, Err(StorageError::UnknownColumn { .. })));
    }

    #[test]
    fn catalog_roundtrip() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.add_table(person());
        assert_eq!(c.len(), 1);
        assert!(c.table("person").is_some());
        assert!(c.require_table("ghost").is_err());
    }

    #[test]
    fn grow_table_scales_rows_and_unique_ndv() {
        let mut c = Catalog::new();
        c.add_table(person());
        let ndv_id_before = c.table("person").unwrap().column("id").unwrap().stats.ndv;
        let ndv_comm_before = c
            .table("person")
            .unwrap()
            .column("community")
            .unwrap()
            .stats
            .ndv;
        c.grow_table("person", 100_000).unwrap();
        let t = c.table("person").unwrap();
        assert_eq!(t.rows, 200_000);
        assert!(t.column("id").unwrap().stats.ndv > ndv_id_before);
        // Categorical column keeps its domain size.
        assert_eq!(t.column("community").unwrap().stats.ndv, ndv_comm_before);
    }

    #[test]
    fn grow_unknown_table_errors() {
        let mut c = Catalog::new();
        assert!(c.grow_table("ghost", 5).is_err());
    }

    #[test]
    fn json_roundtrip_preserves_catalog() {
        let mut c = Catalog::new();
        c.add_table(person());
        c.add_table(
            TableBuilder::new("orders", 5_000)
                .column(Column::int("id", 5_000).with_correlation(0.9))
                .column(
                    Column::float("amount", 1_000, 0.0, 1e6)
                        .with_null_frac(0.05)
                        .with_histogram((0..500).map(f64::from).collect(), 16),
                )
                .partitioned(4, "id")
                .primary_key(&["id"])
                .build()
                .unwrap(),
        );
        let json = c.to_json();
        let c2 = Catalog::from_json(&json).unwrap();
        assert_eq!(c, c2);
        // Column lookup works on the restored catalog (index was rebuilt).
        assert!(c2.table("orders").unwrap().column("amount").is_some());
        // Serialisation is deterministic.
        assert_eq!(c2.to_json(), json);
        // Pretty output parses back to the same catalog.
        assert_eq!(Catalog::from_json(&c.to_json_pretty()).unwrap(), c);
    }

    #[test]
    fn from_json_accepts_legacy_serde_files_with_column_index() {
        // The seed's schema files carried the (redundant) column_index map;
        // it must be ignored, not required.
        let legacy = r#"{"tables":{"t":{"name":"t","columns":[
            {"name":"a","ty":"Int","width":8,
             "stats":{"ndv":10.0,"min":0.0,"max":10.0,"null_frac":0.0,
                      "correlation":0.0,"histogram":null}}],
            "rows":100,"partitions":1,"partition_key":null,
            "primary_key":["a"],"column_index":{"a":0}}}}"#;
        let c = Catalog::from_json(legacy).unwrap();
        let t = c.table("t").unwrap();
        assert_eq!(t.rows, 100);
        assert!(t.is_primary_prefix(&["a".to_string()]));
        assert_eq!(t.column("a").unwrap().ty, ColumnType::Int);
    }

    #[test]
    fn from_json_rejects_bad_input() {
        assert!(Catalog::from_json("not json").is_err());
        assert!(Catalog::from_json("{}").is_err());
        assert!(Catalog::from_json(r#"{"tables":{"t":{"rows":1}}}"#).is_err());
        // Duplicate columns are re-validated on load.
        let dup = r#"{"tables":{"t":{"name":"t","columns":[
            {"name":"a","ty":"Int","width":8,"stats":{"ndv":1,"min":0,"max":1,"null_frac":0,"correlation":0,"histogram":null}},
            {"name":"a","ty":"Int","width":8,"stats":{"ndv":1,"min":0,"max":1,"null_frac":0,"correlation":0,"histogram":null}}],
            "rows":1,"partitions":1,"partition_key":null,"primary_key":[]}}}"#;
        assert!(Catalog::from_json(dup).is_err());
    }

    #[test]
    fn grow_empty_table_sets_rows() {
        let mut c = Catalog::new();
        let t = TableBuilder::new("t", 0)
            .column(Column::int("a", 1))
            .build()
            .unwrap();
        c.add_table(t);
        c.grow_table("t", 42).unwrap();
        assert_eq!(c.table("t").unwrap().rows, 42);
    }
}
