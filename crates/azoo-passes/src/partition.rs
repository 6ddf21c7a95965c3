//! Capacity partitioning for spatial architectures.
//!
//! AutomataZoo's free-form methodology produces benchmarks larger than
//! any one chip: "if benchmarks are too large to fit into the resources
//! of a target spatial architecture, researchers must develop ways to
//! evaluate sequential runs of the partitioned benchmark" (Section III).
//! This pass performs that partitioning: connected components (which can
//! never be split across chips — they share routing) are bin-packed into
//! partitions of at most `capacity` states, first-fit decreasing.

use azoo_core::{stats::component_profiles, Automaton};

use crate::PassError;

/// Splits `a` into partitions of at most `capacity` states, never
/// splitting a connected component. Returns one automaton per partition;
/// report codes and per-component structure are preserved exactly, so
/// scanning every partition over the same input yields the union of the
/// original report stream.
///
/// Uses first-fit-decreasing bin packing, which is within 22% of the
/// optimal partition count.
///
/// # Errors
///
/// Returns [`PassError::ComponentTooLarge`] if a single component
/// exceeds `capacity`.
///
/// # Example
///
/// ```
/// use azoo_core::{Automaton, StartKind, SymbolClass};
/// use azoo_passes::partition;
///
/// let mut a = Automaton::new();
/// for code in 0..10 {
///     let s = a.add_ste(SymbolClass::from_byte(b'a' + code as u8), StartKind::AllInput);
///     a.set_report(s, code);
/// }
/// let parts = partition(&a, 3)?;
/// assert_eq!(parts.len(), 4); // 10 single-state components into bins of 3
/// assert!(parts.iter().all(|p| p.state_count() <= 3));
/// # Ok::<(), azoo_passes::PassError>(())
/// ```
pub fn partition(a: &Automaton, capacity: usize) -> Result<Vec<Automaton>, PassError> {
    assert!(capacity > 0, "capacity must be positive");
    let comps = component_profiles(a);
    if let Some(too_big) = comps.profiles.iter().find(|p| p.states > capacity) {
        return Err(PassError::ComponentTooLarge {
            state: too_big.first_state,
            size: too_big.states,
            capacity,
        });
    }
    let sizes: Vec<usize> = comps.profiles.iter().map(|p| p.states).collect();
    // First-fit decreasing.
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by(|&x, &y| sizes[y].cmp(&sizes[x]).then(x.cmp(&y)));
    let mut bin_of = vec![usize::MAX; sizes.len()];
    let mut bin_load: Vec<usize> = Vec::new();
    for &comp in &order {
        match bin_load
            .iter()
            .position(|&load| load + sizes[comp] <= capacity)
        {
            Some(b) => {
                bin_of[comp] = b;
                bin_load[b] += sizes[comp];
            }
            None => {
                bin_of[comp] = bin_load.len();
                bin_load.push(sizes[comp]);
            }
        }
    }
    let partitions = (0..bin_load.len())
        .map(|b| a.retain_states(|id| bin_of[comps.labels[id.index()]] == b))
        .collect();
    Ok(partitions)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use azoo_core::{StartKind, SymbolClass};

    fn chains(lens: &[usize]) -> Automaton {
        let mut a = Automaton::new();
        for (i, &len) in lens.iter().enumerate() {
            let (_, last) = a.add_chain(
                &vec![SymbolClass::from_byte(b'a' + (i % 26) as u8); len],
                StartKind::AllInput,
            );
            a.set_report(last, i as u32);
        }
        a
    }

    #[test]
    fn packs_components_without_splitting() {
        let a = chains(&[5, 4, 3, 3, 2, 1]);
        let parts = partition(&a, 6).unwrap();
        let total: usize = parts.iter().map(Automaton::state_count).sum();
        assert_eq!(total, 18);
        assert!(parts.iter().all(|p| p.state_count() <= 6));
        assert_eq!(parts.len(), 3); // 5+1, 4+2, 3+3 is optimal
        for p in &parts {
            p.validate().unwrap();
        }
    }

    #[test]
    fn oversized_component_is_an_error() {
        let a = chains(&[10, 2]);
        assert!(matches!(
            partition(&a, 8),
            Err(PassError::ComponentTooLarge { size: 10, .. })
        ));
    }

    #[test]
    fn report_union_is_preserved() {
        use azoo_engines::{CollectSink, Engine, NfaEngine, Report};
        let a = chains(&[3, 2, 4, 1]);
        let input = b"aaaabbbbccccdddd";
        let mut sink = CollectSink::new();
        NfaEngine::new(&a).unwrap().scan(input, &mut sink);
        let mut whole = sink.sorted_reports();
        let mut parts_reports: Vec<Report> = Vec::new();
        for p in partition(&a, 5).unwrap() {
            let mut sink = CollectSink::new();
            NfaEngine::new(&p).unwrap().scan(input, &mut sink);
            parts_reports.extend(sink.reports());
        }
        parts_reports.sort_unstable();
        whole.sort_unstable();
        assert_eq!(whole, parts_reports);
    }

    #[test]
    fn empty_automaton_yields_no_partitions() {
        assert!(partition(&Automaton::new(), 4).unwrap().is_empty());
    }

    #[test]
    fn exact_fit_uses_one_bin() {
        let a = chains(&[3, 3]);
        let parts = partition(&a, 6).unwrap();
        assert_eq!(parts.len(), 1);
    }
}
