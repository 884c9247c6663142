//! The crate-wide error type.
//!
//! PR 4 makes the public tuning surface fallible: each configuration's
//! `validate` rejects a bad field instead of silently clamping it, the online loop surfaces
//! template-matching failures instead of discarding them, and the guard
//! refuses to tune while the database is misbehaving. All of those paths
//! converge on [`AutoIndexError`].

use autoindex_sql::SqlError;
use autoindex_storage::StorageError;

/// Everything that can go wrong across the AutoIndex public API.
#[derive(Debug, Clone, PartialEq)]
pub enum AutoIndexError {
    /// A statement failed to lex/parse/template.
    Sql(SqlError),
    /// The storage substrate rejected an operation (unknown table, failed
    /// index build, injected fault, ...).
    Storage(StorageError),
    /// A configuration's `validate` rejected a field value.
    InvalidConfig {
        /// Dotted path of the offending field, e.g. `"online.diagnosis_interval"`.
        field: &'static str,
        reason: String,
    },
    /// The guard is in observe-only mode: the database faulted repeatedly
    /// and tuning is suspended until an operator intervenes (see
    /// `docs/ROBUSTNESS.md`).
    ObserveOnly,
    /// A strategy name failed to parse into a
    /// [`StrategyKind`](crate::strategy::StrategyKind).
    InvalidStrategy {
        /// The unrecognized name as supplied.
        name: String,
    },
}

impl std::fmt::Display for AutoIndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AutoIndexError::Sql(e) => write!(f, "sql error: {e}"),
            AutoIndexError::Storage(e) => write!(f, "storage error: {e}"),
            AutoIndexError::InvalidConfig { field, reason } => {
                write!(f, "invalid config {field}: {reason}")
            }
            AutoIndexError::ObserveOnly => {
                f.write_str("guard is in observe-only mode; tuning suspended")
            }
            AutoIndexError::InvalidStrategy { name } => {
                write!(
                    f,
                    "unknown tuning strategy `{name}`; expected greedy, mcts or bandit"
                )
            }
        }
    }
}

impl std::error::Error for AutoIndexError {}

impl From<SqlError> for AutoIndexError {
    fn from(e: SqlError) -> Self {
        AutoIndexError::Sql(e)
    }
}

impl From<StorageError> for AutoIndexError {
    fn from(e: StorageError) -> Self {
        AutoIndexError::Storage(e)
    }
}

/// Shared helper for config builders: reject non-finite or out-of-range
/// numeric fields with a uniform error shape.
pub(crate) fn invalid(field: &'static str, reason: impl Into<String>) -> AutoIndexError {
    AutoIndexError::InvalidConfig {
        field,
        reason: reason.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = AutoIndexError::InvalidConfig {
            field: "mcts.iterations",
            reason: "must be >= 1".into(),
        };
        assert!(e.to_string().contains("mcts.iterations"));
        assert!(AutoIndexError::ObserveOnly
            .to_string()
            .contains("observe-only"));
        let s: AutoIndexError = StorageError::UnknownTable("t".into()).into();
        assert!(s.to_string().contains("unknown table"));
        let k = AutoIndexError::InvalidStrategy {
            name: "simulated-annealing".into(),
        };
        assert!(k.to_string().contains("simulated-annealing"));
        assert!(k.to_string().contains("bandit"));
    }
}
