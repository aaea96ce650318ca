//! Grouping normalized what-if queries that can share a program slice.
//!
//! Two queries can share a slice when their normalizations agree on the
//! *original* side: the same padded original history and the same set of
//! modified positions. That is exactly the shape of a parameter sweep (k
//! replacements of the same statement) and of alternative policies touching
//! the same statements. Grouping compares the original histories by full
//! structural equality — never by hash alone — so a shared slice is only
//! ever applied to queries it was certified for (see
//! [`crate::program_slice_multi`]).

use mahif_history::{History, NormalizedWhatIf};

/// One group of queries sharing `(original, positions)` after normalization.
///
/// The members' padded modified histories are *not* duplicated here; they
/// stay owned by the caller's `NormalizedWhatIf` slice and are borrowed via
/// `members` when the group's shared slice is computed.
#[derive(Debug, Clone)]
pub struct ScenarioGroup {
    /// The shared padded original history.
    pub original: History,
    /// The shared modified positions.
    pub positions: Vec<usize>,
    /// Indices (into the normalized batch) of the group's members.
    pub members: Vec<usize>,
}

/// The partition of a batch into slice-sharing groups.
#[derive(Debug, Clone, Default)]
pub struct ScenarioGroups {
    /// The groups, in order of first appearance.
    pub groups: Vec<ScenarioGroup>,
    /// `scenario_group[i]` is the index of query `i`'s group.
    pub scenario_group: Vec<usize>,
}

/// Partitions normalized queries into groups that may share a program slice.
pub fn group_scenarios(normalized: &[NormalizedWhatIf]) -> ScenarioGroups {
    let mut groups: Vec<ScenarioGroup> = Vec::new();
    let mut scenario_group = Vec::with_capacity(normalized.len());
    for (index, n) in normalized.iter().enumerate() {
        let found = groups.iter().position(|g| {
            g.positions == n.modified_positions
                && g.original.statements() == n.original.statements()
        });
        let gi = match found {
            Some(gi) => gi,
            None => {
                groups.push(ScenarioGroup {
                    original: n.original.clone(),
                    positions: n.modified_positions.clone(),
                    members: Vec::new(),
                });
                groups.len() - 1
            }
        };
        groups[gi].members.push(index);
        scenario_group.push(gi);
    }
    ScenarioGroups {
        groups,
        scenario_group,
    }
}

impl ScenarioGroups {
    /// One group per query, in query order: the partition of a batch whose
    /// queries each get a slice of their own.
    pub fn singletons(normalized: &[NormalizedWhatIf]) -> ScenarioGroups {
        ScenarioGroups {
            groups: normalized
                .iter()
                .enumerate()
                .map(|(index, n)| ScenarioGroup {
                    original: n.original.clone(),
                    positions: n.modified_positions.clone(),
                    members: vec![index],
                })
                .collect(),
            scenario_group: (0..normalized.len()).collect(),
        }
    }
}

/// The canonical form of a modified-position set: sorted ascending with
/// duplicates removed. Two position sets that canonicalize equal describe
/// the same modification sites, so cross-request cache keys are built over
/// this form — a request listing positions in a different order (or twice)
/// still finds the plan certified for them.
pub fn canonical_positions(positions: &[usize]) -> Vec<usize> {
    let mut canonical = positions.to_vec();
    canonical.sort_unstable();
    canonical.dedup();
    canonical
}

/// A stable 64-bit hash (FNV-1a) over the canonical position set.
///
/// This is a *filter*, never an identity: cache lookups use it to skip
/// non-matching entries cheaply, then verify the positions — and the
/// histories they index into — by full structural equality, the same
/// never-hash-alone rule [`group_scenarios`] follows. The function is
/// deterministic across processes (no per-process seed), so recorded keys
/// stay comparable.
pub fn position_set_hash(positions: &[usize]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &p in canonical_positions(positions).iter() {
        for byte in (p as u64).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahif_expr::builder::*;
    use mahif_history::statement::{running_example_history, running_example_u1_prime};
    use mahif_history::{Modification, ModificationSet, SetClause, Statement};

    fn normalize(mods: ModificationSet) -> NormalizedWhatIf {
        let history = History::new(running_example_history());
        let (original, modified, modified_positions) = mods.normalize(&history).unwrap();
        NormalizedWhatIf {
            original,
            modified,
            modified_positions,
        }
    }

    fn threshold(t: i64) -> Statement {
        Statement::update(
            "Order",
            SetClause::single("ShippingFee", lit(0)),
            ge(attr("Price"), lit(t)),
        )
    }

    #[test]
    fn sweep_scenarios_share_one_group() {
        let normalized: Vec<NormalizedWhatIf> = [55, 60, 65]
            .iter()
            .map(|&t| normalize(ModificationSet::single_replace(0, threshold(t))))
            .collect();
        let groups = group_scenarios(&normalized);
        assert_eq!(groups.groups.len(), 1);
        assert_eq!(groups.groups[0].members, vec![0, 1, 2]);
        assert_eq!(groups.scenario_group, vec![0, 0, 0]);
        let singletons = ScenarioGroups::singletons(&normalized);
        assert_eq!(singletons.groups.len(), 3);
        assert_eq!(singletons.groups[2].members, vec![2]);
        assert_eq!(singletons.scenario_group, vec![0, 1, 2]);
    }

    #[test]
    fn different_positions_split_groups() {
        let a = normalize(ModificationSet::single_replace(
            0,
            running_example_u1_prime(),
        ));
        let b = normalize(ModificationSet::new(vec![Modification::delete(1)]));
        let c = normalize(ModificationSet::single_replace(0, threshold(70)));
        let groups = group_scenarios(&[a, b, c]);
        assert_eq!(groups.groups.len(), 2);
        assert_eq!(groups.scenario_group, vec![0, 1, 0]);
    }

    #[test]
    fn canonical_positions_sort_and_dedup() {
        assert_eq!(canonical_positions(&[3, 1, 2, 1]), vec![1, 2, 3]);
        assert_eq!(canonical_positions(&[]), Vec::<usize>::new());
        // Equal canonical sets hash equal regardless of input order …
        assert_eq!(
            position_set_hash(&[3, 1, 2]),
            position_set_hash(&[1, 2, 3, 2])
        );
        // … and different sets (almost surely) differ.
        assert_ne!(position_set_hash(&[1, 2, 3]), position_set_hash(&[1, 2, 4]));
        assert_ne!(position_set_hash(&[]), position_set_hash(&[0]));
    }
}
