//! The CRISPR/Cas9 off-target-search benchmarks (Bo et al., HPCA 2018).
//!
//! Finding candidate gRNA binding sites means scanning a genome for
//! approximate matches of 20bp guide sequences. Bo et al. built two
//! automata filter designs mirroring the two software baselines:
//!
//! * **CasOFFinder-style** (`OFF`): a seed-anchored shallow filter —
//!   exact match on the 12bp PAM-adjacent seed plus a distance-1 mesh
//!   over the remaining 8bp (small and quiet, ~37 states/filter in the
//!   paper).
//! * **CasOT-style** (`OT`): a whole-guide distance-3 mismatch mesh (the
//!   larger, more tolerant and much more active design — ~101
//!   states/filter and a 5x higher active set in the paper).
//!
//! AutomataZoo generates 2,000 filters per benchmark, the largest problem
//! size evaluated in Bo's work.

use azoo_core::{Automaton, ElementKind, StartKind, SymbolClass};
use azoo_fuzzy::{fuzzy_from_bytes, EditProfile};
use azoo_workloads::dna;
use rand::RngExt;

/// Which CRISPR filter design to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrisprDesign {
    /// CasOFFinder-style whole-guide shallow mismatch filter.
    OffFinder,
    /// CasOT-style exact-seed + tolerant-tail filter.
    CasOt,
}

/// Parameters for the CRISPR benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct CrisprParams {
    /// Filter design.
    pub design: CrisprDesign,
    /// Number of guide filters (AutomataZoo: 2,000).
    pub guides: usize,
    /// Guide length in base-pairs (biology: 20).
    pub guide_len: usize,
    /// Genome stream length.
    pub input_len: usize,
    /// Generation seed.
    pub seed: u64,
}

impl CrisprParams {
    /// Full-scale parameters for a design.
    pub fn published(design: CrisprDesign) -> Self {
        CrisprParams {
            design,
            guides: 2000,
            guide_len: 20,
            input_len: 1 << 20,
            seed: 0xC815,
        }
    }
}

/// Builds a CasOT-style filter: a whole-guide distance-3 Hamming mesh.
///
/// # Panics
///
/// Panics if the guide is empty.
pub fn cas_ot_filter(guide: &[u8], code: u32) -> Automaton {
    fuzzy_from_bytes(guide, 3.min(guide.len() - 1), EditProfile::HAMMING, code)
        .expect("non-empty guide")
        .0
}

/// Builds a CasOFFinder-style filter: exact 12bp seed, then a distance-1
/// Hamming mesh over the remaining tail.
///
/// # Panics
///
/// Panics if the guide is shorter than 14bp.
pub fn cas_offinder_filter(guide: &[u8], code: u32) -> Automaton {
    assert!(guide.len() >= 14, "guide too short for seed+tail split");
    let (seed, tail) = guide.split_at(12);
    let mut a = Automaton::new();
    let classes: Vec<SymbolClass> = seed.iter().map(|&b| SymbolClass::from_byte(b)).collect();
    let (_, seed_end) = a.add_chain(&classes, StartKind::AllInput);
    // Attach the tail mesh: demote its start states and drive them from
    // the seed.
    let (tail_mesh, _) =
        fuzzy_from_bytes(tail, 1, EditProfile::HAMMING, code).expect("tail of at least 2bp");
    let tail_starts = tail_mesh.start_states();
    let offset = a.append(&tail_mesh);
    for s in tail_starts {
        let id = azoo_core::StateId::new(s.index() + offset as usize);
        if let ElementKind::Ste { start, .. } = &mut a.element_mut(id).kind {
            *start = StartKind::None;
        }
        a.add_edge(seed_end, id);
    }
    a
}

/// Builds the benchmark: `guides` filters plus a genome stream with a
/// few planted exact and one-mismatch sites.
pub fn build(params: &CrisprParams) -> (Automaton, Vec<u8>) {
    let mut a = Automaton::new();
    let mut guides = Vec::with_capacity(params.guides);
    for i in 0..params.guides {
        let guide = dna::random_guide(params.seed ^ (i as u64 + 1), params.guide_len);
        let f = match params.design {
            CrisprDesign::OffFinder => cas_offinder_filter(&guide, i as u32),
            CrisprDesign::CasOt => cas_ot_filter(&guide, i as u32),
        };
        a.append(&f);
        guides.push(guide);
    }
    // Plant some sites: exact copies and single-substitution copies.
    let mut r = azoo_workloads::rng(params.seed ^ 0xDA7A);
    let planted: Vec<Vec<u8>> = guides
        .iter()
        .take(10)
        .enumerate()
        .map(|(i, g)| {
            let mut site = g.clone();
            if i % 2 == 1 {
                // Mutate outside the 12bp seed so both filter designs
                // still accept the site.
                let at = r.random_range(12..site.len());
                site[at] = dna::DNA[r.random_range(0..4)];
            }
            site
        })
        .collect();
    let (input, _) = dna::dna_with_planted(params.seed ^ 0xFEED, params.input_len, &planted);
    (a, input)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use azoo_engines::{CollectSink, Engine, NfaEngine};

    fn scan_codes(a: &Automaton, input: &[u8]) -> std::collections::HashSet<u32> {
        let mut engine = NfaEngine::new(a).unwrap();
        let mut sink = CollectSink::new();
        engine.scan(input, &mut sink);
        sink.reports().iter().map(|r| r.code.0).collect()
    }

    #[test]
    fn casot_tolerates_three_mismatches_anywhere() {
        let guide = b"ACGTACGTACGTACGTACGT";
        let a = cas_ot_filter(guide, 0);
        a.validate().unwrap();
        let mut three = guide.to_vec();
        three[2] = b'A'; // was G
        three[9] = b'A'; // was C
        three[16] = b'C'; // was A
        assert!(scan_codes(&a, guide).contains(&0));
        assert!(scan_codes(&a, &three).contains(&0));
        let mut four = three.clone();
        four[19] = b'A'; // was T
        assert!(!scan_codes(&a, &four).contains(&0));
    }

    #[test]
    fn offinder_requires_exact_seed() {
        let guide = b"ACGTACGTACGTACGTACGT";
        let a = cas_offinder_filter(guide, 0);
        a.validate().unwrap();
        // Mismatch in the 12bp seed kills the match...
        let mut seed_mut = guide.to_vec();
        seed_mut[4] = b'T'; // was A
        assert!(!scan_codes(&a, &seed_mut).contains(&0));
        // ...one tail mismatch is tolerated, two are not.
        let mut tail_one = guide.to_vec();
        tail_one[16] = b'C'; // was A
        assert!(scan_codes(&a, &tail_one).contains(&0));
        let mut tail_two = tail_one.clone();
        tail_two[13] = b'A'; // was C
        assert!(!scan_codes(&a, &tail_two).contains(&0));
    }

    #[test]
    fn ot_filters_are_larger_and_more_active_than_off() {
        // Table I: CasOT 101 states/filter and a ~5x higher active set
        // than CasOFFinder's 37 states/filter.
        let guide = dna::random_guide(1, 20);
        let off = cas_offinder_filter(&guide, 0);
        let ot = cas_ot_filter(&guide, 0);
        assert!(ot.state_count() > off.state_count());
        let input = dna::random_dna(9, 20_000);
        let mut sink = azoo_engines::NullSink::new();
        let p_off = NfaEngine::new(&off)
            .unwrap()
            .scan_profiled(&input, &mut sink);
        let p_ot = NfaEngine::new(&ot)
            .unwrap()
            .scan_profiled(&input, &mut sink);
        assert!(
            p_ot.active_set() > 2.0 * p_off.active_set(),
            "ot {} vs off {}",
            p_ot.active_set(),
            p_off.active_set()
        );
    }

    #[test]
    fn benchmark_finds_planted_sites() {
        let (a, input) = build(&CrisprParams {
            design: CrisprDesign::OffFinder,
            guides: 30,
            guide_len: 20,
            input_len: 50_000,
            seed: 9,
        });
        let codes = scan_codes(&a, &input);
        let found = (0..10).filter(|c| codes.contains(c)).count();
        assert!(found >= 9, "only {found}/10 planted sites found");
    }
}
