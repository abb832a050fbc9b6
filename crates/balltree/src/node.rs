//! Arena node representation shared by both trees.

use p2h_core::{Error, Result, Scalar};

/// Sentinel child id meaning "no child" (leaf node).
pub const NO_CHILD: u32 = u32::MAX;

/// One node of a ball tree, stored in an arena (`Vec<Node>`).
///
/// Centers are kept in a separate flat buffer (one `dim`-sized slice per node) so the
/// node array itself stays small and cache friendly; `center_offset` indexes into that
/// buffer. The points covered by a node are the contiguous range `start..end` of the
/// tree's reordered point array, which makes leaf scans sequential (the property the
/// paper relies on for cheap candidate verification).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// Offset (in points, not scalars) of this node's center in the centers buffer.
    pub center_offset: u32,
    /// Radius: maximum Euclidean distance from the center to any covered point.
    pub radius: Scalar,
    /// First covered position in the reordered point array.
    pub start: u32,
    /// One past the last covered position in the reordered point array.
    pub end: u32,
    /// Left child node id, or [`NO_CHILD`] for a leaf.
    pub left: u32,
    /// Right child node id, or [`NO_CHILD`] for a leaf.
    pub right: u32,
}

impl Node {
    /// Number of points covered by this node.
    #[inline]
    pub fn size(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether this node is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.left == NO_CHILD
    }
}

/// Validates an arena-encoded tree structure against everything the iterative searches
/// rely on for memory safety and termination, without touching floating-point data.
///
/// This is the load-time gate for snapshots coming off disk (`p2h-store`): a malformed
/// or hostile node array must yield a typed error, never an out-of-bounds index or an
/// endless traversal. Checks, for `point_count` points and `center_rows` center rows:
///
/// * the arena is non-empty and the root (node 0) covers exactly `0..point_count`;
/// * every node's range is ordered and in bounds, and its `center_offset` addresses a
///   valid center row;
/// * every leaf holds between 1 and `leaf_size` points;
/// * every internal node's children are in-range and partition the parent's range;
/// * every non-root node is referenced exactly once as a child (so the part of the
///   arena reachable from the root is a tree — traversals terminate);
/// * with `siblings_adjacent`, the right child's center row immediately follows the
///   left child's (the layout contract of the Ball-Tree's paired-children matvec).
pub(crate) fn validate_structure(
    nodes: &[Node],
    point_count: usize,
    center_rows: usize,
    leaf_size: usize,
    siblings_adjacent: bool,
) -> Result<()> {
    let corrupt = |message: String| Error::Corrupt(format!("tree structure: {message}"));
    if leaf_size == 0 {
        return Err(corrupt("leaf size must be at least 1".into()));
    }
    let root = nodes.first().ok_or_else(|| corrupt("empty node arena".into()))?;
    if root.start != 0 || root.end as usize != point_count {
        return Err(corrupt(format!(
            "root covers {}..{} instead of 0..{point_count}",
            root.start, root.end
        )));
    }
    let mut child_refs = vec![0u32; nodes.len()];
    for (id, node) in nodes.iter().enumerate() {
        let (start, end) = (node.start as usize, node.end as usize);
        if start > end || end > point_count {
            return Err(corrupt(format!("node {id} has invalid range {start}..{end}")));
        }
        if (node.center_offset as usize) >= center_rows {
            return Err(corrupt(format!(
                "node {id} center row {} out of bounds ({center_rows} rows)",
                node.center_offset
            )));
        }
        if node.is_leaf() {
            if node.right != NO_CHILD {
                return Err(corrupt(format!("node {id} has a right child but no left child")));
            }
            if node.size() == 0 || node.size() > leaf_size {
                return Err(corrupt(format!(
                    "leaf {id} holds {} points (N0 = {leaf_size})",
                    node.size()
                )));
            }
            continue;
        }
        let (left, right) = (node.left as usize, node.right as usize);
        if left >= nodes.len() || right >= nodes.len() || left == right {
            return Err(corrupt(format!("node {id} has invalid children {left}/{right}")));
        }
        child_refs[left] += 1;
        child_refs[right] += 1;
        let (l, r) = (&nodes[left], &nodes[right]);
        if l.start != node.start || l.end != r.start || r.end != node.end {
            return Err(corrupt(format!("children of node {id} do not partition its range")));
        }
        if siblings_adjacent && r.center_offset != l.center_offset + 1 {
            return Err(corrupt(format!(
                "sibling centers of node {id} are not adjacent ({} / {})",
                l.center_offset, r.center_offset
            )));
        }
    }
    if child_refs[0] != 0 {
        return Err(corrupt("root is referenced as a child".into()));
    }
    if let Some(id) = (1..nodes.len()).find(|&id| child_refs[id] != 1) {
        return Err(corrupt(format!(
            "node {id} is referenced {} times as a child",
            child_refs[id]
        )));
    }
    Ok(())
}

/// Validates that `ids` is a permutation of `0..point_count` (the reordered-position →
/// original-index mapping every tree stores). Load-time companion of
/// [`validate_structure`].
pub(crate) fn validate_permutation(ids: &[u32], point_count: usize) -> Result<()> {
    if ids.len() != point_count {
        return Err(Error::Corrupt(format!(
            "id mapping has {} entries for {point_count} points",
            ids.len()
        )));
    }
    let mut seen = vec![false; point_count];
    for &id in ids {
        let id = id as usize;
        if id >= point_count || seen[id] {
            return Err(Error::Corrupt("id mapping is not a permutation".into()));
        }
        seen[id] = true;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_and_leaf_flags() {
        let leaf = Node {
            center_offset: 0,
            radius: 1.0,
            start: 10,
            end: 25,
            left: NO_CHILD,
            right: NO_CHILD,
        };
        assert_eq!(leaf.size(), 15);
        assert!(leaf.is_leaf());

        let internal = Node { left: 3, right: 4, ..leaf };
        assert!(!internal.is_leaf());
    }

    #[test]
    fn node_is_small() {
        // The node must stay compact: 6 fields, at most 32 bytes on 64-bit targets.
        assert!(std::mem::size_of::<Node>() <= 32);
    }

    /// A well-formed three-node arena: root over 0..10 with children 0..6 and 6..10,
    /// sibling centers adjacent (rows 1 and 2).
    fn tiny_arena() -> Vec<Node> {
        let leaf = |center_offset, start, end| Node {
            center_offset,
            radius: 1.0,
            start,
            end,
            left: NO_CHILD,
            right: NO_CHILD,
        };
        vec![
            Node { center_offset: 0, radius: 2.0, start: 0, end: 10, left: 1, right: 2 },
            leaf(1, 0, 6),
            leaf(2, 6, 10),
        ]
    }

    #[test]
    fn validate_accepts_well_formed_arena() {
        let nodes = tiny_arena();
        validate_structure(&nodes, 10, 3, 8, true).unwrap();
        validate_structure(&nodes, 10, 3, 8, false).unwrap();
    }

    #[test]
    fn validate_rejects_malformed_arenas() {
        let ok = tiny_arena();
        let corrupt = |mutate: &dyn Fn(&mut Vec<Node>)| {
            let mut nodes = ok.clone();
            mutate(&mut nodes);
            validate_structure(&nodes, 10, 3, 8, true)
        };
        assert!(validate_structure(&[], 10, 0, 8, true).is_err(), "empty arena");
        assert!(validate_structure(&ok, 11, 3, 8, true).is_err(), "root range mismatch");
        assert!(validate_structure(&ok, 10, 2, 8, true).is_err(), "center row out of bounds");
        assert!(validate_structure(&ok, 10, 3, 0, true).is_err(), "zero leaf size");
        assert!(validate_structure(&ok, 10, 3, 4, true).is_err(), "leaf over N0");
        assert!(corrupt(&|n| n[0].left = 7).is_err(), "child id out of range");
        assert!(corrupt(&|n| n[0].right = 1).is_err(), "duplicated child");
        assert!(corrupt(&|n| n[1].end = 5).is_err(), "children do not partition");
        assert!(corrupt(&|n| n[1].start = 3).is_err(), "left start detached");
        assert!(corrupt(&|n| n[2].center_offset = 0).is_err(), "siblings not adjacent");
        assert!(corrupt(&|n| n[1].end = 0).is_err(), "inverted range");
        assert!(corrupt(&|n| n[0].right = 0).is_err(), "root referenced as child");
        // A self-cycle: node 1 claims the root's range and points back at itself.
        assert!(
            corrupt(&|n| {
                n[1] = n[0];
                n[1].center_offset = 1;
            })
            .is_err(),
            "cycle via re-referenced children"
        );
        // Non-adjacent siblings are fine when the layout contract is not requested.
        let mut swapped = ok.clone();
        swapped[1].center_offset = 2;
        swapped[2].center_offset = 1;
        assert!(validate_structure(&swapped, 10, 3, 8, false).is_ok());
        assert!(validate_structure(&swapped, 10, 3, 8, true).is_err());
    }
}
