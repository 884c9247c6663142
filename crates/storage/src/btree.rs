//! Disk-paged B+Tree over the [`Pager`]: insert with node splits, point
//! and range scans via the leaf chain, delete with occupancy rebalance
//! (borrow from a sibling, else merge), and an integrity walker.
//!
//! # Keys
//!
//! An index entry is the composite pair `(key, row)` — both `u64` —
//! compared lexicographically. Making the *composite* the tree key keeps
//! every entry unique even when many rows share an index key, so splits,
//! separators and deletes never need duplicate-aware special cases; a
//! point lookup for `key` is just the range `(key, 0) ..= (key, MAX)`.
//!
//! # Node layout (inside a [`PAYLOAD_SIZE`] payload)
//!
//! ```text
//! leaf:   [ count u16 | next_leaf u32 | count × (key u64, row u64) ]
//! branch: [ count u16 | child0 u32   | count × (key u64, row u64, child u32) ]
//! ```
//!
//! Separator `i` is the smallest composite in `child[i+1]`'s subtree;
//! descent takes `child[partition_point(sep <= k)]`.
//!
//! # Fanout
//!
//! [`BtreeConfig`] clamps node capacity below the page-derived maximum
//! (254 leaf / 203 branch entries). The default fanout of 64 is
//! deliberately small so multi-level trees, branch splits and rebalances
//! are exercised at test-sized row counts; raise it toward
//! [`BtreeConfig::page_max`] for production-shaped runs.
//!
//! All functions are free functions over `(&mut Pager, root)` — the tree
//! owns no pages; whoever holds the root id does.

use crate::pager::{page_type, Pager, NO_PAGE, PAYLOAD_SIZE};
use crate::StorageError;

/// One index entry: the `(key, row)` composite the tree orders by.
pub type Entry = (u64, u64);

/// Page-derived maximum leaf entries (16 bytes each after the 6-byte
/// node header).
pub const MAX_LEAF_CAP: usize = (PAYLOAD_SIZE - 6) / 16;
/// Page-derived maximum branch separators (20 bytes each).
pub const MAX_BRANCH_CAP: usize = (PAYLOAD_SIZE - 6) / 20;

/// Node capacities; see the module docs on fanout.
#[derive(Debug, Clone, Copy)]
pub struct BtreeConfig {
    /// Max entries per leaf before it splits.
    pub leaf_cap: usize,
    /// Max separators per branch before it splits.
    pub branch_cap: usize,
}

impl BtreeConfig {
    /// Both caps set to `fanout`, clamped into `[4, page max]`.
    pub fn with_fanout(fanout: usize) -> Self {
        BtreeConfig {
            leaf_cap: fanout.clamp(4, MAX_LEAF_CAP),
            branch_cap: fanout.clamp(4, MAX_BRANCH_CAP),
        }
    }

    /// The page-derived maximum capacities.
    pub fn page_max() -> Self {
        Self::with_fanout(usize::MAX)
    }

    /// Minimum occupancy before a non-root leaf is rebalanced.
    fn min_leaf(&self) -> usize {
        (self.leaf_cap / 4).max(1)
    }

    /// Minimum separators before a non-root branch is rebalanced.
    fn min_branch(&self) -> usize {
        (self.branch_cap / 4).max(1)
    }
}

impl Default for BtreeConfig {
    fn default() -> Self {
        Self::with_fanout(64)
    }
}

/// Structural-churn counters, accumulated across the calls they are
/// passed to.
#[derive(Debug, Default, Clone, Copy)]
pub struct TreeOps {
    /// Node splits (leaf + branch).
    pub splits: u64,
    /// Node merges during delete rebalance.
    pub merges: u64,
    /// Entry/separator borrows during delete rebalance.
    pub borrows: u64,
}

// ---------------------------------------------------------------- nodes

struct Leaf {
    next: u32,
    entries: Vec<Entry>,
}

struct Branch {
    /// `keys.len() + 1 == children.len()`.
    keys: Vec<Entry>,
    children: Vec<u32>,
}

fn read_u16(p: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([p[off], p[off + 1]])
}

fn read_u32(p: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]])
}

fn read_u64(p: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes"))
}

fn load_leaf(pager: &mut Pager, id: u32) -> Result<Leaf, StorageError> {
    let p = pager.payload(id)?;
    let count = read_u16(p, 0) as usize;
    if 6 + count * 16 > PAYLOAD_SIZE {
        return Err(StorageError::Corrupt(format!("leaf {id} count {count}")));
    }
    let next = read_u32(p, 2);
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let off = 6 + i * 16;
        entries.push((read_u64(p, off), read_u64(p, off + 8)));
    }
    Ok(Leaf { next, entries })
}

fn store_leaf(pager: &mut Pager, id: u32, leaf: &Leaf) -> Result<(), StorageError> {
    let p = pager.payload_mut(id)?;
    p[0..2].copy_from_slice(&(leaf.entries.len() as u16).to_le_bytes());
    p[2..6].copy_from_slice(&leaf.next.to_le_bytes());
    for (i, &(k, v)) in leaf.entries.iter().enumerate() {
        let off = 6 + i * 16;
        p[off..off + 8].copy_from_slice(&k.to_le_bytes());
        p[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
    }
    Ok(())
}

fn load_branch(pager: &mut Pager, id: u32) -> Result<Branch, StorageError> {
    let p = pager.payload(id)?;
    let count = read_u16(p, 0) as usize;
    if 6 + count * 20 > PAYLOAD_SIZE {
        return Err(StorageError::Corrupt(format!("branch {id} count {count}")));
    }
    let mut keys = Vec::with_capacity(count);
    let mut children = Vec::with_capacity(count + 1);
    children.push(read_u32(p, 2));
    for i in 0..count {
        let off = 6 + i * 20;
        keys.push((read_u64(p, off), read_u64(p, off + 8)));
        children.push(read_u32(p, off + 16));
    }
    Ok(Branch { keys, children })
}

fn store_branch(pager: &mut Pager, id: u32, b: &Branch) -> Result<(), StorageError> {
    debug_assert_eq!(b.children.len(), b.keys.len() + 1);
    let p = pager.payload_mut(id)?;
    p[0..2].copy_from_slice(&(b.keys.len() as u16).to_le_bytes());
    p[2..6].copy_from_slice(&b.children[0].to_le_bytes());
    for (i, &(k, v)) in b.keys.iter().enumerate() {
        let off = 6 + i * 20;
        p[off..off + 8].copy_from_slice(&k.to_le_bytes());
        p[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
        p[off + 16..off + 20].copy_from_slice(&b.children[i + 1].to_le_bytes());
    }
    Ok(())
}

// ----------------------------------------------------------------- create

/// Create an empty tree; returns its root (a lone empty leaf).
pub fn create(pager: &mut Pager) -> Result<u32, StorageError> {
    let id = pager.alloc(page_type::LEAF)?;
    store_leaf(
        pager,
        id,
        &Leaf {
            next: NO_PAGE,
            entries: Vec::new(),
        },
    )?;
    Ok(id)
}

// ----------------------------------------------------------------- insert

/// Insert `(key, row)`; returns the (possibly new) root. Inserting an
/// entry that already exists is a no-op.
pub fn insert(
    pager: &mut Pager,
    cfg: &BtreeConfig,
    root: u32,
    entry: Entry,
    ops: &mut TreeOps,
) -> Result<u32, StorageError> {
    match insert_rec(pager, cfg, root, entry, ops)? {
        None => Ok(root),
        Some((sep, right)) => {
            let new_root = pager.alloc(page_type::BRANCH)?;
            store_branch(
                pager,
                new_root,
                &Branch {
                    keys: vec![sep],
                    children: vec![root, right],
                },
            )?;
            ops.splits += 1;
            Ok(new_root)
        }
    }
}

/// Recursive insert; `Some((sep, right_id))` means this node split.
fn insert_rec(
    pager: &mut Pager,
    cfg: &BtreeConfig,
    id: u32,
    entry: Entry,
    ops: &mut TreeOps,
) -> Result<Option<(Entry, u32)>, StorageError> {
    if pager.page_type(id)? == page_type::LEAF {
        let mut leaf = load_leaf(pager, id)?;
        match leaf.entries.binary_search(&entry) {
            Ok(_) => return Ok(None), // exact duplicate: idempotent
            Err(pos) => leaf.entries.insert(pos, entry),
        }
        if leaf.entries.len() <= cfg.leaf_cap {
            store_leaf(pager, id, &leaf)?;
            return Ok(None);
        }
        // Split: right half moves to a fresh leaf spliced into the chain.
        let mid = leaf.entries.len() / 2;
        let right_entries = leaf.entries.split_off(mid);
        let sep = right_entries[0];
        let right_id = pager.alloc(page_type::LEAF)?;
        store_leaf(
            pager,
            right_id,
            &Leaf {
                next: leaf.next,
                entries: right_entries,
            },
        )?;
        leaf.next = right_id;
        store_leaf(pager, id, &leaf)?;
        ops.splits += 1;
        Ok(Some((sep, right_id)))
    } else {
        let mut b = load_branch(pager, id)?;
        let idx = b.keys.partition_point(|&k| k <= entry);
        let split = insert_rec(pager, cfg, b.children[idx], entry, ops)?;
        let Some((sep, right)) = split else {
            return Ok(None);
        };
        b.keys.insert(idx, sep);
        b.children.insert(idx + 1, right);
        if b.keys.len() <= cfg.branch_cap {
            store_branch(pager, id, &b)?;
            return Ok(None);
        }
        // Branch split: the middle separator moves up.
        let mid = b.keys.len() / 2;
        let up = b.keys[mid];
        let right_keys = b.keys.split_off(mid + 1);
        b.keys.pop(); // `up` belongs to the parent now
        let right_children = b.children.split_off(mid + 1);
        let right_id = pager.alloc(page_type::BRANCH)?;
        store_branch(
            pager,
            right_id,
            &Branch {
                keys: right_keys,
                children: right_children,
            },
        )?;
        store_branch(pager, id, &b)?;
        ops.splits += 1;
        Ok(Some((up, right_id)))
    }
}

// ------------------------------------------------------------------ scans

/// All rows indexed under `key` (point lookup).
pub fn lookup(pager: &mut Pager, root: u32, key: u64) -> Result<Vec<u64>, StorageError> {
    Ok(range_entries(pager, root, (key, 0), (key, u64::MAX))?
        .into_iter()
        .map(|(_, row)| row)
        .collect())
}

/// All `(key, row)` entries with `lo <= key <= hi`, in key order.
pub fn range(pager: &mut Pager, root: u32, lo: u64, hi: u64) -> Result<Vec<Entry>, StorageError> {
    range_entries(pager, root, (lo, 0), (hi, u64::MAX))
}

/// Every entry in the tree, in order. This is the bit-equality surface:
/// two trees with different physical layouts (online vs offline build)
/// are equal iff their `entries` streams are equal.
pub fn entries(pager: &mut Pager, root: u32) -> Result<Vec<Entry>, StorageError> {
    range_entries(pager, root, (0, 0), (u64::MAX, u64::MAX))
}

fn range_entries(
    pager: &mut Pager,
    root: u32,
    lo: Entry,
    hi: Entry,
) -> Result<Vec<Entry>, StorageError> {
    // Descend to the leaf that could hold `lo`…
    let mut id = root;
    while pager.page_type(id)? == page_type::BRANCH {
        let b = load_branch(pager, id)?;
        id = b.children[b.keys.partition_point(|&k| k <= lo)];
    }
    // …then walk the chain.
    let mut out = Vec::new();
    loop {
        let leaf = load_leaf(pager, id)?;
        for &e in &leaf.entries {
            if e > hi {
                return Ok(out);
            }
            if e >= lo {
                out.push(e);
            }
        }
        if leaf.next == NO_PAGE {
            return Ok(out);
        }
        id = leaf.next;
    }
}

// ----------------------------------------------------------------- delete

/// Remove `(key, row)`; returns the (possibly new) root and whether the
/// entry existed. Underfull nodes borrow from a sibling or merge; a
/// branch root left with no separator collapses into its only child.
pub fn remove(
    pager: &mut Pager,
    cfg: &BtreeConfig,
    root: u32,
    entry: Entry,
    ops: &mut TreeOps,
) -> Result<(u32, bool), StorageError> {
    let removed = remove_rec(pager, cfg, root, entry, ops)?;
    let mut root = root;
    if removed && pager.page_type(root)? == page_type::BRANCH {
        let b = load_branch(pager, root)?;
        if b.keys.is_empty() {
            let child = b.children[0];
            pager.free(root)?;
            root = child;
        }
    }
    Ok((root, removed))
}

fn remove_rec(
    pager: &mut Pager,
    cfg: &BtreeConfig,
    id: u32,
    entry: Entry,
    ops: &mut TreeOps,
) -> Result<bool, StorageError> {
    if pager.page_type(id)? == page_type::LEAF {
        let mut leaf = load_leaf(pager, id)?;
        let Ok(pos) = leaf.entries.binary_search(&entry) else {
            return Ok(false);
        };
        leaf.entries.remove(pos);
        store_leaf(pager, id, &leaf)?;
        return Ok(true);
    }
    let mut b = load_branch(pager, id)?;
    let idx = b.keys.partition_point(|&k| k <= entry);
    let removed = remove_rec(pager, cfg, b.children[idx], entry, ops)?;
    if removed {
        fix_underflow(pager, cfg, &mut b, idx, ops)?;
        store_branch(pager, id, &b)?;
    }
    Ok(removed)
}

/// Rebalance `b.children[idx]` if it dropped below minimum occupancy:
/// borrow one entry/separator from a richer sibling, else merge with one.
fn fix_underflow(
    pager: &mut Pager,
    cfg: &BtreeConfig,
    b: &mut Branch,
    idx: usize,
    ops: &mut TreeOps,
) -> Result<(), StorageError> {
    let child = b.children[idx];
    if pager.page_type(child)? == page_type::LEAF {
        let c = load_leaf(pager, child)?;
        if c.entries.len() >= cfg.min_leaf() {
            return Ok(());
        }
        // Borrow from the left sibling's tail…
        if idx > 0 {
            let left_id = b.children[idx - 1];
            let mut left = load_leaf(pager, left_id)?;
            if left.entries.len() > cfg.min_leaf() {
                let mut c = c;
                let moved = left.entries.pop().expect("rich sibling");
                c.entries.insert(0, moved);
                b.keys[idx - 1] = moved;
                store_leaf(pager, left_id, &left)?;
                store_leaf(pager, child, &c)?;
                ops.borrows += 1;
                return Ok(());
            }
        }
        // …or the right sibling's head…
        if idx + 1 < b.children.len() {
            let right_id = b.children[idx + 1];
            let mut right = load_leaf(pager, right_id)?;
            if right.entries.len() > cfg.min_leaf() {
                let mut c = c;
                let moved = right.entries.remove(0);
                c.entries.push(moved);
                b.keys[idx] = right.entries[0];
                store_leaf(pager, right_id, &right)?;
                store_leaf(pager, child, &c)?;
                ops.borrows += 1;
                return Ok(());
            }
        }
        // …else merge with a sibling (left preferred).
        let (li, ri) = if idx > 0 {
            (idx - 1, idx)
        } else {
            (idx, idx + 1)
        };
        if ri >= b.children.len() {
            return Ok(()); // root's only leaf child — nothing to merge with
        }
        let (left_id, right_id) = (b.children[li], b.children[ri]);
        let mut left = load_leaf(pager, left_id)?;
        let right = load_leaf(pager, right_id)?;
        left.entries.extend(right.entries);
        left.next = right.next;
        store_leaf(pager, left_id, &left)?;
        pager.free(right_id)?;
        b.keys.remove(li);
        b.children.remove(ri);
        ops.merges += 1;
    } else {
        let c = load_branch(pager, child)?;
        if c.keys.len() >= cfg.min_branch() {
            return Ok(());
        }
        // Borrow rotates a separator through the parent.
        if idx > 0 {
            let left_id = b.children[idx - 1];
            let mut left = load_branch(pager, left_id)?;
            if left.keys.len() > cfg.min_branch() {
                let mut c = c;
                c.keys.insert(0, b.keys[idx - 1]);
                c.children.insert(0, left.children.pop().expect("rich"));
                b.keys[idx - 1] = left.keys.pop().expect("rich");
                store_branch(pager, left_id, &left)?;
                store_branch(pager, child, &c)?;
                ops.borrows += 1;
                return Ok(());
            }
        }
        if idx + 1 < b.children.len() {
            let right_id = b.children[idx + 1];
            let mut right = load_branch(pager, right_id)?;
            if right.keys.len() > cfg.min_branch() {
                let mut c = c;
                c.keys.push(b.keys[idx]);
                c.children.push(right.children.remove(0));
                b.keys[idx] = right.keys.remove(0);
                store_branch(pager, right_id, &right)?;
                store_branch(pager, child, &c)?;
                ops.borrows += 1;
                return Ok(());
            }
        }
        let (li, ri) = if idx > 0 {
            (idx - 1, idx)
        } else {
            (idx, idx + 1)
        };
        if ri >= b.children.len() {
            return Ok(());
        }
        let (left_id, right_id) = (b.children[li], b.children[ri]);
        let mut left = load_branch(pager, left_id)?;
        let right = load_branch(pager, right_id)?;
        left.keys.push(b.keys[li]);
        left.keys.extend(right.keys);
        left.children.extend(right.children);
        store_branch(pager, left_id, &left)?;
        pager.free(right_id)?;
        b.keys.remove(li);
        b.children.remove(ri);
        ops.merges += 1;
    }
    Ok(())
}

// ------------------------------------------------------------- free / check

/// Free every page of the tree; returns how many were freed.
pub fn free_tree(pager: &mut Pager, root: u32) -> Result<u64, StorageError> {
    let mut freed = 0;
    if pager.page_type(root)? == page_type::BRANCH {
        let b = load_branch(pager, root)?;
        for child in b.children {
            freed += free_tree(pager, child)?;
        }
    }
    pager.free(root)?;
    Ok(freed + 1)
}

/// Result of an integrity walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeCheck {
    /// Levels from root to leaves (a lone leaf has depth 1).
    pub depth: usize,
    /// Pages the tree occupies.
    pub pages: u64,
    /// Entries stored.
    pub entries: u64,
}

/// Walk the whole tree verifying: uniform leaf depth, strictly sorted
/// entries and separators, separator bounds, minimum occupancy of
/// non-root nodes, and a leaf chain that matches the in-order leaves.
pub fn check(pager: &mut Pager, cfg: &BtreeConfig, root: u32) -> Result<TreeCheck, StorageError> {
    let mut leaves = Vec::new();
    let mut pages = 0u64;
    let mut total = 0u64;
    let depth = check_rec(
        pager,
        cfg,
        root,
        true,
        None,
        None,
        &mut leaves,
        &mut pages,
        &mut total,
    )?;
    // The leaf chain must be exactly the in-order leaves.
    for (i, &id) in leaves.iter().enumerate() {
        let leaf = load_leaf(pager, id)?;
        let expect = leaves.get(i + 1).copied().unwrap_or(NO_PAGE);
        if leaf.next != expect {
            return Err(StorageError::Corrupt(format!(
                "leaf chain broken at {id}: next {} expected {expect}",
                leaf.next
            )));
        }
    }
    Ok(TreeCheck {
        depth,
        pages,
        entries: total,
    })
}

#[allow(clippy::too_many_arguments)]
fn check_rec(
    pager: &mut Pager,
    cfg: &BtreeConfig,
    id: u32,
    is_root: bool,
    lo: Option<Entry>,
    hi: Option<Entry>,
    leaves: &mut Vec<u32>,
    pages: &mut u64,
    total: &mut u64,
) -> Result<usize, StorageError> {
    *pages += 1;
    let in_bounds = |e: Entry| lo.is_none_or(|l| e >= l) && hi.is_none_or(|h| e < h);
    if pager.page_type(id)? == page_type::LEAF {
        let leaf = load_leaf(pager, id)?;
        if !is_root && leaf.entries.len() < cfg.min_leaf() {
            return Err(StorageError::Corrupt(format!("leaf {id} underfull")));
        }
        for w in leaf.entries.windows(2) {
            if w[0] >= w[1] {
                return Err(StorageError::Corrupt(format!("leaf {id} unsorted")));
            }
        }
        if let Some(&e) = leaf.entries.iter().find(|&&e| !in_bounds(e)) {
            return Err(StorageError::Corrupt(format!(
                "leaf {id} entry {e:?} out of bounds"
            )));
        }
        *total += leaf.entries.len() as u64;
        leaves.push(id);
        return Ok(1);
    }
    let b = load_branch(pager, id)?;
    if !is_root && b.keys.len() < cfg.min_branch() {
        return Err(StorageError::Corrupt(format!("branch {id} underfull")));
    }
    if b.keys.is_empty() && !is_root {
        return Err(StorageError::Corrupt(format!("branch {id} empty")));
    }
    for w in b.keys.windows(2) {
        if w[0] >= w[1] {
            return Err(StorageError::Corrupt(format!("branch {id} unsorted")));
        }
    }
    if let Some(&k) = b.keys.iter().find(|&&k| !in_bounds(k)) {
        return Err(StorageError::Corrupt(format!(
            "branch {id} separator {k:?} out of bounds"
        )));
    }
    let mut depth = None;
    for (i, &child) in b.children.iter().enumerate() {
        let clo = if i == 0 { lo } else { Some(b.keys[i - 1]) };
        let chi = if i == b.keys.len() {
            hi
        } else {
            Some(b.keys[i])
        };
        let d = check_rec(pager, cfg, child, false, clo, chi, leaves, pages, total)?;
        if *depth.get_or_insert(d) != d {
            return Err(StorageError::Corrupt(format!(
                "branch {id} children at unequal depth"
            )));
        }
    }
    Ok(depth.expect("branch has children") + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_support::rng::StdRng;

    fn small() -> BtreeConfig {
        BtreeConfig::with_fanout(4)
    }

    #[test]
    fn insert_scan_roundtrip_with_duplicate_keys() {
        let mut p = Pager::new();
        let cfg = small();
        let mut ops = TreeOps::default();
        let mut root = create(&mut p).unwrap();
        // 100 entries over only 10 distinct keys, inserted shuffled.
        let mut es: Vec<Entry> = (0..100u64).map(|i| (i % 10, i)).collect();
        let mut rng = StdRng::seed_from_u64(7);
        rng.shuffle(&mut es);
        for &e in &es {
            root = insert(&mut p, &cfg, root, e, &mut ops).unwrap();
        }
        es.sort();
        assert_eq!(entries(&mut p, root).unwrap(), es);
        assert_eq!(lookup(&mut p, root, 3).unwrap().len(), 10);
        let r = range(&mut p, root, 2, 4).unwrap();
        assert_eq!(r.len(), 30);
        assert!(r.iter().all(|&(k, _)| (2..=4).contains(&k)));
        assert!(ops.splits > 0, "fanout 4 must split on 100 entries");
        let chk = check(&mut p, &cfg, root).unwrap();
        assert_eq!(chk.entries, 100);
        assert!(chk.depth >= 3, "multi-level tree expected");
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut p = Pager::new();
        let cfg = small();
        let mut ops = TreeOps::default();
        let mut root = create(&mut p).unwrap();
        for _ in 0..3 {
            root = insert(&mut p, &cfg, root, (5, 5), &mut ops).unwrap();
        }
        assert_eq!(entries(&mut p, root).unwrap(), vec![(5, 5)]);
    }

    #[test]
    fn delete_rebalances_and_collapses_root() {
        let mut p = Pager::new();
        let cfg = small();
        let mut ops = TreeOps::default();
        let mut root = create(&mut p).unwrap();
        let n = 200u64;
        for i in 0..n {
            root = insert(&mut p, &cfg, root, (i, i), &mut ops).unwrap();
        }
        let deep = check(&mut p, &cfg, root).unwrap();
        assert!(deep.depth >= 3);
        // Delete everything in a churny order; the tree must stay valid
        // at every step and collapse back to a single page.
        let mut order: Vec<u64> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(11);
        rng.shuffle(&mut order);
        for (step, &i) in order.iter().enumerate() {
            let (r, removed) = remove(&mut p, &cfg, root, (i, i), &mut ops).unwrap();
            root = r;
            assert!(removed, "entry {i} must exist");
            let chk = check(&mut p, &cfg, root).unwrap();
            assert_eq!(chk.entries, n - step as u64 - 1);
        }
        let end = check(&mut p, &cfg, root).unwrap();
        assert_eq!((end.entries, end.depth, end.pages), (0, 1, 1));
        assert!(ops.merges > 0, "merges must fire");
        assert!(ops.borrows > 0, "borrows must fire");
        // Removing a missing entry is a clean no-op.
        let (r, removed) = remove(&mut p, &cfg, root, (1, 1), &mut ops).unwrap();
        assert!(!removed);
        assert_eq!(r, root);
    }

    #[test]
    fn free_tree_returns_every_page_to_the_freelist() {
        let mut p = Pager::new();
        let cfg = small();
        let mut ops = TreeOps::default();
        let mut root = create(&mut p).unwrap();
        for i in 0..100u64 {
            root = insert(&mut p, &cfg, root, (i, i), &mut ops).unwrap();
        }
        let pages_before = check(&mut p, &cfg, root).unwrap().pages;
        let freed = free_tree(&mut p, root).unwrap();
        assert_eq!(freed, pages_before);
        // Every freed page is reusable before any fresh allocation.
        let count = p.page_count();
        for _ in 0..freed {
            p.alloc(page_type::LEAF).unwrap();
        }
        assert_eq!(p.page_count(), count, "allocs came off the freelist");
    }

    #[test]
    fn random_workload_matches_a_model() {
        let mut p = Pager::new();
        let cfg = BtreeConfig::with_fanout(8);
        let mut ops = TreeOps::default();
        let mut root = create(&mut p).unwrap();
        let mut model = std::collections::BTreeSet::new();
        let mut rng = StdRng::seed_from_u64(42);
        for step in 0..2_000u64 {
            let key = rng.next_u64() % 50;
            let row = rng.next_u64() % 40;
            if rng.random_bool(0.6) {
                root = insert(&mut p, &cfg, root, (key, row), &mut ops).unwrap();
                model.insert((key, row));
            } else {
                let (r, removed) = remove(&mut p, &cfg, root, (key, row), &mut ops).unwrap();
                root = r;
                assert_eq!(removed, model.remove(&(key, row)), "step {step}");
            }
        }
        let got = entries(&mut p, root).unwrap();
        let want: Vec<Entry> = model.into_iter().collect();
        assert_eq!(got, want);
        check(&mut p, &cfg, root).unwrap();
    }
}
