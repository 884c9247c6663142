//! Property test for the sort/covering surface of the what-if planner:
//! over random schemas, a plan that elides the sort through an ordered
//! index seek, or answers from a covering index, charges a different cost
//! than the sort- and heap-paying plan but reports the same rows. The
//! planner's seq / index crossover is modelled (`storage::index`), not
//! checked against pages.

use autoindex_sql::parse_statement;
use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
use autoindex_storage::index::{IndexDef, SortDirection};
use autoindex_storage::planner::{CostParams, Planner, VisibleIndex};
use autoindex_storage::shape::QueryShape;
use autoindex_support::prop::{property, PropConfig};
use autoindex_support::prop_assert;

/// Planner-level guard over random schemas: whenever the chosen plan
/// elides the sort (ordered index seek) the winning path really provides
/// the required order and no sort cost is charged; whenever it reports a
/// covering scan, the path pays zero heap fetches. Either way the
/// semantic fields (rows out, matched selectivity) are identical to the
/// sort/heap-paying plan with no indexes — the surface changes cost,
/// never results.
#[test]
fn surface_plans_change_cost_never_results() {
    property(
        "surface_plans_change_cost_never_results",
        PropConfig::default(),
        |rng, _size| {
            let rows = rng.random_range(10_000u64..2_000_000);
            let distinct = rng.random_range(2u64..5_000);
            let mut c = Catalog::new();
            c.add_table(
                TableBuilder::new("t", rows)
                    .column(Column::int("a", distinct))
                    .column(Column::int("b", 64))
                    .column(Column::int("c", 1000))
                    .primary_key(&["a"])
                    .build()
                    .unwrap(),
            );
            let desc = rng.random_bool(0.5);
            let dir_matches = rng.random_bool(0.5);
            let sql = format!(
                "SELECT a, b, c FROM t WHERE a = 7 ORDER BY b{} LIMIT 20",
                if desc { " DESC" } else { "" }
            );
            let stmt = parse_statement(&sql).unwrap();
            let shape = QueryShape::extract(&stmt, &c);

            // Only the ORDER BY key part's direction varies; either
            // direction is servable (forward or backward scan), so the
            // plan must elide the sort regardless of dir_matches.
            let key_dir = if desc == dir_matches {
                SortDirection::Desc
            } else {
                SortDirection::Asc
            };
            let plan_with = |cols: &[&str]| {
                let mut dirs = vec![SortDirection::Asc; cols.len()];
                dirs[1] = key_dir;
                let def = IndexDef::new("t", cols).with_directions(&dirs);
                let geo = autoindex_storage::index::geometry(&def, c.table("t").unwrap()).unwrap();
                let params = CostParams::default();
                let vis = vec![VisibleIndex {
                    id: autoindex_storage::index::IndexId(0),
                    def,
                    geo,
                }];
                Planner::new(&c, &params).plan(&shape, &vis)
            };
            let covering = plan_with(&["a", "b", "c"]);
            let lookup = plan_with(&["a", "b"]);
            let params = CostParams::default();
            let bare = Planner::new(&c, &params).plan(&shape, &[]);

            for (name, plan) in [("covering", &covering), ("lookup", &lookup)] {
                prop_assert!(
                    plan.sort_elided == 1,
                    "{name}: ordered seek not chosen, desc={desc} \
                     dir_matches={dir_matches} rows={rows}"
                );
                prop_assert!(
                    plan.sort_cost == 0.0,
                    "{name}: sort charged despite elision"
                );
                prop_assert!(plan.paths[0].provides_order, "{name}: no order provided");
                // Semantic fields identical: the surface changes cost,
                // never results.
                prop_assert!(plan.paths[0].rows_out == bare.paths[0].rows_out);
            }
            prop_assert!(bare.sort_cost > 0.0, "bare plan must pay the sort");

            let cov = &covering.paths[0];
            let base = &lookup.paths[0];
            prop_assert!(cov.covering, "index holding every column not covering");
            prop_assert!(covering.covering_scans == 1);
            prop_assert!(!base.covering, "index missing column c marked covering");
            prop_assert!(lookup.covering_scans == 0);
            // Covering reduces heap fetches to visibility checks — paid
            // per page, two orders of magnitude below per-tuple lookups.
            prop_assert!(
                cov.heap_cost < base.heap_cost,
                "covering paid {} heap vs {} for base lookups",
                cov.heap_cost,
                base.heap_cost
            );
            prop_assert!(base.heap_cost > 0.0, "base-lookup path paid no heap");
            Ok(())
        },
    );
}
