//! The lowered form every automaton-simulating tier reads.
//!
//! [`Lowered::new`] validates an automaton once and flattens it into
//! per-state tables (class, report code and flags, `AllInput` mark),
//! the `AllInput` and sorted `StartOfData` lists, CSR successors and
//! the counter list. [`NfaEngine`](crate::NfaEngine) and
//! [`LazyDfaEngine`](crate::LazyDfaEngine) each hold one by value, so
//! their clones copy it and their hot loops index it directly.
//!
//! [`byte_classes`] is the one alphabet partition: the lazy DFA's
//! columns and the bit-vector tier's lane rows both come from it.

use azoo_core::{Automaton, CounterMode, ElementKind, Port, StartKind, SymbolClass};

use crate::EngineError;

/// Top bit of a [`Lowered::succ_tgt`] entry: the edge drives a
/// counter's reset port.
pub(crate) const PORT_BIT: u32 = 1 << 31;

/// An automaton flattened into per-state tables.
#[derive(Debug, Clone)]
pub(crate) struct Lowered {
    /// Symbol class per state (empty for counters).
    pub classes: Vec<SymbolClass>,
    /// Report code per state; meaningful where `has_report` is set.
    pub report_code: Vec<u32>,
    // A separate mask, not a code sentinel: u32::MAX is a legal code.
    pub has_report: Vec<bool>,
    pub report_eod: Vec<bool>,
    pub is_always: Vec<bool>,
    /// `AllInput` start states, ascending.
    pub always: Vec<u32>,
    /// `StartOfData` start states, ascending.
    pub sod: Vec<u32>,
    /// CSR adjacency over all elements, reset edges marked with
    /// [`PORT_BIT`].
    pub succ_off: Vec<u32>,
    pub succ_tgt: Vec<u32>,
    /// Counter elements, ascending by element id.
    pub counters: Vec<Counter>,
}

/// One counter element.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Counter {
    pub elem: u32,
    pub target: u32,
    pub mode: CounterMode,
}

impl Lowered {
    /// Validates and lowers `a`.
    pub fn new(a: &Automaton) -> Result<Lowered, EngineError> {
        a.validate()?;
        let n = a.state_count();
        let mut net = Lowered {
            classes: vec![SymbolClass::EMPTY; n],
            report_code: vec![0; n],
            has_report: vec![false; n],
            report_eod: vec![false; n],
            is_always: vec![false; n],
            always: Vec::new(),
            sod: Vec::new(),
            succ_off: Vec::with_capacity(n + 1),
            succ_tgt: Vec::with_capacity(a.edge_count()),
            counters: Vec::new(),
        };
        net.succ_off.push(0);
        for (id, e) in a.iter() {
            let i = id.index();
            if let Some(code) = e.report {
                net.report_code[i] = code.0;
                net.has_report[i] = true;
            }
            net.report_eod[i] = e.report_eod_only;
            match &e.kind {
                ElementKind::Ste { class, start } => {
                    net.classes[i] = *class;
                    match start {
                        StartKind::None => {}
                        StartKind::StartOfData => net.sod.push(i as u32),
                        StartKind::AllInput => {
                            net.is_always[i] = true;
                            net.always.push(i as u32);
                        }
                    }
                }
                ElementKind::Counter { target, mode } => net.counters.push(Counter {
                    elem: i as u32,
                    target: *target,
                    mode: *mode,
                }),
            }
            for edge in a.successors(id) {
                let reset = PORT_BIT * u32::from(edge.port == Port::Reset);
                net.succ_tgt.push(edge.to.index() as u32 | reset);
            }
            net.succ_off.push(net.succ_tgt.len() as u32);
        }
        Ok(net)
    }

    /// Number of elements.
    pub fn state_count(&self) -> usize {
        self.classes.len()
    }

    /// Successor entries of state `s`, reset edges marked with
    /// [`PORT_BIT`].
    #[inline]
    pub fn successors(&self, s: usize) -> &[u32] {
        &self.succ_tgt[self.succ_off[s] as usize..self.succ_off[s + 1] as usize]
    }
}

/// A partition of the byte alphabet into the coarsest classes that no
/// input class tells apart: two bytes share a class exactly when every
/// input class holds both or neither.
#[derive(Debug, Clone)]
pub(crate) struct ByteClasses {
    /// Class of each byte value; classes are numbered in order of their
    /// smallest byte.
    pub class_of: [u16; 256],
    /// Smallest byte of each class.
    pub reps: Vec<u8>,
}

impl ByteClasses {
    /// Number of classes.
    pub fn len(&self) -> usize {
        self.reps.len()
    }
}

/// Partitions the bytes by membership in `classes`, refining one
/// distinct class at a time.
pub(crate) fn byte_classes<'a>(classes: impl IntoIterator<Item = &'a SymbolClass>) -> ByteClasses {
    let mut distinct: Vec<&SymbolClass> = classes.into_iter().collect();
    distinct.sort_unstable_by_key(|c| c.as_words());
    distinct.dedup();
    let mut class_of = [0u16; 256];
    let mut count = 1usize;
    // `split[2 * k + member]`: new number of old class `k`'s bytes in
    // (`member` = 1) or outside `c`.
    let mut split: Vec<u16> = Vec::new();
    for c in distinct {
        if count == 256 {
            break;
        }
        split.clear();
        split.resize(2 * count, u16::MAX);
        let mut next = 0u16;
        for (b, k) in class_of.iter_mut().enumerate() {
            let slot = &mut split[2 * usize::from(*k) + usize::from(c.contains(b as u8))];
            if *slot == u16::MAX {
                *slot = next;
                next += 1;
            }
            *k = *slot;
        }
        count = usize::from(next);
    }
    let mut reps = vec![0u8; count];
    for b in (0..=255u8).rev() {
        reps[usize::from(class_of[usize::from(b)])] = b;
    }
    ByteClasses { class_of, reps }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_class(rng: &mut ChaCha8Rng) -> SymbolClass {
        match rng.random_range(0..4u8) {
            0 => SymbolClass::from_byte(rng.random()),
            1 => {
                let lo: u8 = rng.random();
                SymbolClass::from_range(lo, lo.saturating_add(rng.random_range(0..40)))
            }
            2 => SymbolClass::from_byte(rng.random()).complement(),
            _ => {
                let mut c = SymbolClass::EMPTY;
                for _ in 0..rng.random_range(1..30) {
                    c.insert(rng.random());
                }
                c
            }
        }
    }

    #[test]
    fn partition_is_exact_and_minimal() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC1A55);
        for round in 0..300 {
            // 0 to 40 input classes; none leaves one class of 256 bytes.
            let inputs: Vec<SymbolClass> =
                (0..round % 41).map(|_| random_class(&mut rng)).collect();
            let p = byte_classes(&inputs);
            let signature = |b: u8| -> Vec<bool> { inputs.iter().map(|c| c.contains(b)).collect() };
            // Exact: bytes sharing a class share every input class.
            for b in 0..=255u8 {
                let k = usize::from(p.class_of[usize::from(b)]);
                assert_eq!(
                    signature(b),
                    signature(p.reps[k]),
                    "round {round}, byte {b}"
                );
            }
            // Minimal: any two classes differ on some input class.
            for i in 0..p.len() {
                for j in i + 1..p.len() {
                    assert_ne!(signature(p.reps[i]), signature(p.reps[j]), "round {round}");
                }
            }
            // Numbered by smallest byte, each represented by it.
            for (k, &rep) in p.reps.iter().enumerate() {
                assert_eq!(usize::from(p.class_of[usize::from(rep)]), k);
                assert!((0..rep).all(|b| usize::from(p.class_of[usize::from(b)]) < k));
            }
        }
    }

    #[test]
    fn lowering_marks_reset_edges_and_lists_counters() {
        let mut a = Automaton::new();
        let s = a.add_ste(SymbolClass::from_byte(b'a'), StartKind::AllInput);
        let t = a.add_ste(SymbolClass::from_byte(b'b'), StartKind::StartOfData);
        let c = a.add_counter(3, CounterMode::Latch);
        a.add_edge(s, c);
        a.add_reset_edge(t, c);
        a.set_report(c, 9);
        let net = Lowered::new(&a).unwrap();
        assert_eq!(net.always, vec![0]);
        assert_eq!(net.sod, vec![1]);
        assert_eq!(net.successors(0), &[2]);
        assert_eq!(net.successors(1), &[2 | PORT_BIT]);
        assert_eq!(net.counters.len(), 1);
        assert_eq!((net.counters[0].elem, net.counters[0].target), (2, 3));
        assert!(net.has_report[2] && net.report_code[2] == 9);
    }
}
