//! An Aho–Corasick multi-literal matcher.
//!
//! This is the trigger stage of the prefilter engine: it reports the
//! *end offset* of every occurrence of every literal, tagged with the
//! pattern's id. The matcher streams trivially — the current node is
//! the whole cross-chunk state.
//!
//! Only the root has a dense 256-entry row. Every other node stores the
//! set of bytes it has trie edges on as a 256-bit mask, and its children
//! in byte order, so an edge is found by one bit test and a popcount;
//! a byte with no edge follows the fail link, and every fail chain ends
//! at the root. On random input a scan rarely leaves the first two trie
//! levels, so it touches the root row and the depth-1 masks: about
//! 10 KiB for ClamAV at Small (3,300 literals, 23,239 nodes), where a
//! dense row per node would be 24 MB and a scan would run from memory
//! whenever other work had evicted it.

use std::sync::Arc;

/// An occurrence of pattern `pattern` whose last byte is at `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LiteralHit {
    /// Offset of the occurrence's final byte.
    pub(crate) end: u64,
    /// Index of the matched pattern, as passed to [`AhoCorasick::new`].
    pub(crate) pattern: u32,
}

/// The compiled automaton, shared by every clone of a matcher. Nodes are
/// numbered breadth-first, the root 0.
#[derive(Debug)]
struct Tables {
    /// `root[byte]` — the root's goto, missing edges looping to the root.
    root: [u32; 256],
    /// Per node, the bytes it has a trie edge on.
    mask: Vec<[u64; 4]>,
    /// Per node, the index of its first child in `edge_to`; children are
    /// in byte order, so the edge on `b` is at `edge_off + rank(b)`.
    edge_off: Vec<u32>,
    edge_to: Vec<u32>,
    /// Fail link of every node.
    fail: Vec<u32>,
    /// One bit per node: whether any pattern ends there.
    has_out: Vec<u64>,
    /// CSR output lists: patterns ending at each node (own plus
    /// fail-chain outputs, merged at build time).
    out_off: Vec<u32>,
    out_pat: Vec<u32>,
}

impl Tables {
    /// The node reached from `node` on byte `b`.
    #[inline]
    fn step(&self, mut node: usize, b: u8) -> usize {
        let (w, bit) = (b as usize / 64, b % 64);
        loop {
            if node == 0 {
                return self.root[b as usize] as usize;
            }
            let mask = &self.mask[node];
            if mask[w] >> bit & 1 == 1 {
                let rank = mask[..w].iter().map(|m| m.count_ones()).sum::<u32>()
                    + (mask[w] & ((1u64 << bit) - 1)).count_ones();
                return self.edge_to[(self.edge_off[node] + rank) as usize] as usize;
            }
            node = self.fail[node] as usize;
        }
    }
}

/// Aho–Corasick automaton over byte literals.
///
/// The tables are immutable once built and reference-counted, so a clone
/// shares them and carries only its own streaming node.
#[derive(Debug, Clone)]
pub(crate) struct AhoCorasick {
    tables: Arc<Tables>,
    /// Current node for streaming scans.
    state: u32,
}

impl AhoCorasick {
    /// Builds the matcher. Empty patterns are ignored (they would match
    /// everywhere and carry no filtering power).
    pub(crate) fn new<P: AsRef<[u8]>>(patterns: &[P]) -> AhoCorasick {
        // Trie construction, edges unsorted.
        let mut children: Vec<Vec<(u8, u32)>> = vec![Vec::new()];
        let mut outs: Vec<Vec<u32>> = vec![Vec::new()];
        for (pi, p) in patterns.iter().enumerate() {
            let mut node = 0usize;
            for &b in p.as_ref() {
                node = match children[node].iter().find(|&&(e, _)| e == b) {
                    Some(&(_, t)) => t as usize,
                    None => {
                        let fresh = children.len();
                        children[node].push((b, fresh as u32));
                        children.push(Vec::new());
                        outs.push(Vec::new());
                        fresh
                    }
                };
            }
            if node != 0 {
                outs[node].push(pi as u32);
            }
        }

        // Renumber breadth-first: every fail link then points to a node
        // numbered earlier, and the hot shallow nodes sit together.
        let nodes = children.len();
        let mut order = Vec::with_capacity(nodes);
        order.push(0u32);
        let mut head = 0;
        while head < order.len() {
            let u = order[head] as usize;
            head += 1;
            children[u].sort_unstable();
            order.extend(children[u].iter().map(|&(_, t)| t));
        }
        let mut id = vec![0u32; nodes];
        for (new, &old) in order.iter().enumerate() {
            id[old as usize] = new as u32;
        }
        let children: Vec<Vec<(u8, u32)>> = order
            .iter()
            .map(|&old| {
                children[old as usize]
                    .iter()
                    .map(|&(b, t)| (b, id[t as usize]))
                    .collect()
            })
            .collect();
        let mut outs: Vec<Vec<u32>> = order
            .iter()
            .map(|&old| std::mem::take(&mut outs[old as usize]))
            .collect();

        // Fail links in breadth-first order; a node's fail target is
        // shallower, so its merged output list is final by then.
        let goto = |u: usize, b: u8| -> Option<u32> {
            children[u]
                .binary_search_by_key(&b, |&(e, _)| e)
                .ok()
                .map(|k| children[u][k].1)
        };
        let mut fail = vec![0u32; nodes];
        for u in 0..nodes {
            if u != 0 && !outs[fail[u] as usize].is_empty() {
                let inherited = outs[fail[u] as usize].clone();
                outs[u].extend(inherited);
            }
            for &(b, t) in &children[u] {
                if u == 0 {
                    continue;
                }
                let mut f = fail[u] as usize;
                fail[t as usize] = loop {
                    if let Some(g) = goto(f, b) {
                        break g;
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = fail[f] as usize;
                };
            }
        }

        let mut root = [0u32; 256];
        for &(b, t) in &children[0] {
            root[b as usize] = t;
        }
        let mut mask = vec![[0u64; 4]; nodes];
        let mut edge_off = Vec::with_capacity(nodes);
        let mut edge_to = Vec::with_capacity(nodes);
        for (u, c) in children.iter().enumerate() {
            edge_off.push(edge_to.len() as u32);
            for &(b, t) in c {
                mask[u][b as usize / 64] |= 1 << (b % 64);
                edge_to.push(t);
            }
        }
        let mut has_out = vec![0u64; nodes.div_ceil(64)];
        let mut out_off = Vec::with_capacity(nodes + 1);
        let mut out_pat = Vec::new();
        out_off.push(0);
        for (u, o) in outs.iter().enumerate() {
            if !o.is_empty() {
                has_out[u / 64] |= 1 << (u % 64);
            }
            out_pat.extend_from_slice(o);
            out_off.push(out_pat.len() as u32);
        }
        AhoCorasick {
            tables: Arc::new(Tables {
                root,
                mask,
                edge_off,
                edge_to,
                fail,
                has_out,
                out_off,
                out_pat,
            }),
            state: 0,
        }
    }

    /// Rewinds the streaming state to the root.
    pub(crate) fn reset(&mut self) {
        self.state = 0;
    }

    /// Whether the streaming state sits at the root (freshly reset).
    pub(crate) fn is_at_root(&self) -> bool {
        self.state == 0
    }

    /// Feeds one chunk; hit offsets are `base` plus the in-chunk index.
    /// Matcher state carries over to the next call, so literals spanning
    /// chunk boundaries are found.
    pub(crate) fn feed(&mut self, chunk: &[u8], base: u64, hits: &mut Vec<LiteralHit>) {
        let t = &*self.tables;
        let mut node = self.state as usize;
        for (i, &b) in chunk.iter().enumerate() {
            node = t.step(node, b);
            if t.has_out[node / 64] & (1 << (node % 64)) == 0 {
                continue;
            }
            let lo = t.out_off[node] as usize;
            let hi = t.out_off[node + 1] as usize;
            for &pattern in &t.out_pat[lo..hi] {
                hits.push(LiteralHit {
                    end: base + i as u64,
                    pattern,
                });
            }
        }
        self.state = node as u32;
    }

    /// One-shot scan of a whole input.
    #[cfg(test)]
    fn find_all(&mut self, hay: &[u8]) -> Vec<LiteralHit> {
        self.reset();
        let mut hits = Vec::new();
        self.feed(hay, 0, &mut hits);
        hits
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn naive(patterns: &[&[u8]], hay: &[u8]) -> Vec<LiteralHit> {
        let mut hits = Vec::new();
        for (i, &b) in hay.iter().enumerate() {
            let _ = b;
            for (pi, p) in patterns.iter().enumerate() {
                if i + 1 >= p.len() && hay[i + 1 - p.len()..=i] == **p {
                    hits.push(LiteralHit {
                        end: i as u64,
                        pattern: pi as u32,
                    });
                }
            }
        }
        hits
    }

    fn sorted(mut v: Vec<LiteralHit>) -> Vec<(u64, u32)> {
        v.sort_by_key(|h| (h.end, h.pattern));
        v.into_iter().map(|h| (h.end, h.pattern)).collect()
    }

    #[test]
    fn finds_overlapping_and_nested_patterns() {
        let patterns: Vec<&[u8]> = vec![b"he", b"she", b"his", b"hers"];
        let mut ac = AhoCorasick::new(&patterns);
        let hay = b"ushers and his head";
        assert_eq!(sorted(ac.find_all(hay)), sorted(naive(&patterns, hay)));
    }

    #[test]
    fn repeated_and_self_overlapping() {
        let patterns: Vec<&[u8]> = vec![b"aa", b"aaa"];
        let mut ac = AhoCorasick::new(&patterns);
        let hay = b"aaaaa";
        assert_eq!(sorted(ac.find_all(hay)), sorted(naive(&patterns, hay)));
    }

    #[test]
    fn streaming_matches_whole_at_every_cut() {
        let patterns: Vec<&[u8]> = vec![b"chunk", b"unk", b"boundary"];
        let hay = b"achunkyboundarychunk";
        let mut whole = AhoCorasick::new(&patterns);
        let expect = sorted(whole.find_all(hay));
        for cut in 0..=hay.len() {
            let mut ac = AhoCorasick::new(&patterns);
            ac.reset();
            let mut hits = Vec::new();
            ac.feed(&hay[..cut], 0, &mut hits);
            ac.feed(&hay[cut..], cut as u64, &mut hits);
            assert_eq!(sorted(hits), expect, "cut {cut}");
        }
    }

    #[test]
    fn duplicate_patterns_report_both_ids() {
        let patterns: Vec<&[u8]> = vec![b"dup", b"dup"];
        let mut ac = AhoCorasick::new(&patterns);
        let hits = ac.find_all(b"dup");
        assert_eq!(sorted(hits), vec![(2, 0), (2, 1)]);
    }

    #[test]
    fn empty_patterns_are_ignored() {
        let patterns: Vec<&[u8]> = vec![b"", b"x"];
        let mut ac = AhoCorasick::new(&patterns);
        assert_eq!(sorted(ac.find_all(b"axa")), vec![(1, 1)]);
    }

    #[test]
    fn deep_fail_chains_match_naive_search() {
        // Small alphabets make long shared prefixes, suffix-of-another
        // patterns and multi-step fail chains; bytes straddling 63/64 and
        // 127/128 exercise every mask word's rank.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for alphabet in [&b"ab"[..], b"abc", &[0, 63, 64, 127, 128, 255]] {
            let patterns: Vec<Vec<u8>> = (0..40)
                .map(|_| {
                    (0..1 + next(7))
                        .map(|_| alphabet[next(alphabet.len() as u64) as usize])
                        .collect()
                })
                .collect();
            let hay: Vec<u8> = (0..600)
                .map(|_| alphabet[next(alphabet.len() as u64) as usize])
                .collect();
            let refs: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();
            let expect = sorted(naive(&refs, &hay));
            let mut ac = AhoCorasick::new(&patterns);
            assert_eq!(sorted(ac.find_all(&hay)), expect);
            let cut = next(hay.len() as u64) as usize;
            let mut fork = ac.clone();
            fork.reset();
            let mut hits = Vec::new();
            fork.feed(&hay[..cut], 0, &mut hits);
            fork.feed(&hay[cut..], cut as u64, &mut hits);
            assert_eq!(sorted(hits), expect, "cut {cut}");
        }
    }

    #[test]
    fn binary_bytes_work() {
        let patterns: Vec<&[u8]> = vec![&[0x00, 0xff], &[0xff, 0x00]];
        let mut ac = AhoCorasick::new(&patterns);
        let hay = [0x00u8, 0xff, 0x00, 0xff];
        assert_eq!(sorted(ac.find_all(&hay)), sorted(naive(&patterns, &hay)));
    }
}
