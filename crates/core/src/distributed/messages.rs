//! Wire messages of the distributed algorithm, with exact bit accounting.
//!
//! Every field is charged its true width, and the widths are all
//! `O(log n)`:
//!
//! * a node id costs `⌈log₂ n⌉` bits;
//! * a remaining-length field costs `⌈log₂ (l + 1)⌉` bits with `l = O(n·ln(1/ε))`;
//! * a fixed-point count costs `⌈log₂ (K (l+1) 2^F)⌉` bits with
//!   `K = O(log n)`.
//!
//! The `wire` round-trip tests at the bottom prove the declared sizes are
//! actually achievable encodings, so the paper's Theorem 4 ("each message
//! contains `O(log n)` bits") holds mechanically, not just by assertion.

use congest_sim::wire::{BitReader, BitWriter, Crc32, WireState};
use congest_sim::{bits_for_count, bits_for_node_id, CorruptionKind, Message};
use rand::rngs::StdRng;
use rand::Rng;
use rwbc_graph::NodeId;

/// A random-walk token: the unit of the paper's Algorithm 1. Carries its
/// source id and its remaining length, exactly as in line 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkToken {
    /// The node the walk started at (`RW.source`).
    pub source: NodeId,
    /// Hops left before truncation (`RW.length`).
    pub remaining: u32,
}

/// One phase-1 message: the walk tokens crossing an edge in a round.
///
/// Under the paper's discipline ([`CongestionDiscipline::HoldAndResend`])
/// a batch always holds exactly one token; the batched ablation packs as
/// many as the run's per-edge bit budget allows, up to the 15 tokens the
/// 4-bit count header can express.
///
/// A one-token batch is held inline, so the walk phase's million-odd
/// messages per solve allocate nothing; any other count keeps its tokens
/// on the heap. The representation never shows: equality, the wire
/// encoding, [`Message::bit_size`], [`Message::digest`] and the
/// checkpoint bytes depend only on [`WalkBatch::tokens`] and
/// [`WalkBatch::len_bits`].
///
/// [`CongestionDiscipline::HoldAndResend`]: crate::distributed::CongestionDiscipline::HoldAndResend
#[derive(Debug, Clone)]
pub struct WalkBatch {
    tokens: Tokens,
    /// Width of the remaining-length field, `⌈log₂ (l + 1)⌉` bits,
    /// fixed per run at construction.
    pub len_bits: u8,
}

/// Storage of a [`WalkBatch`]'s tokens.
#[derive(Debug, Clone)]
enum Tokens {
    /// Exactly one token, inline.
    One(WalkToken),
    /// Any other count, on the heap (never exactly one).
    Many(Vec<WalkToken>),
}

/// Width of the batch-size header (tokens per message is small).
const BATCH_HEADER_BITS: usize = 4;

impl WalkBatch {
    /// Most tokens one batch can carry: the largest count the
    /// [`BATCH_HEADER_BITS`]-bit header can express.
    pub const MAX_TOKENS: usize = (1 << BATCH_HEADER_BITS) - 1;

    /// A batch of one token, held inline.
    pub fn one(token: WalkToken, len_bits: u8) -> WalkBatch {
        WalkBatch {
            tokens: Tokens::One(token),
            len_bits,
        }
    }

    /// A batch of `tokens`, in order. A one-token list is moved inline.
    pub fn new(tokens: Vec<WalkToken>, len_bits: u8) -> WalkBatch {
        match *tokens.as_slice() {
            [token] => WalkBatch::one(token, len_bits),
            _ => WalkBatch {
                tokens: Tokens::Many(tokens),
                len_bits,
            },
        }
    }

    /// The tokens, in wire order.
    pub fn tokens(&self) -> &[WalkToken] {
        match &self.tokens {
            Tokens::One(token) => std::slice::from_ref(token),
            Tokens::Many(tokens) => tokens,
        }
    }

    /// Bits one token occupies in a network of `n` nodes.
    pub fn token_bits(n: usize, len_bits: u8) -> usize {
        bits_for_node_id(n) + len_bits as usize
    }

    /// Tokens per batch that fit a per-edge budget of `budget_bits` in a
    /// network of `n` nodes: as many as fit after the count header,
    /// capped at [`WalkBatch::MAX_TOKENS`], and at least one (a budget
    /// too small for one token is the engine's to reject).
    pub fn capacity(budget_bits: usize, n: usize, len_bits: u8) -> usize {
        let token = WalkBatch::token_bits(n, len_bits);
        (budget_bits.saturating_sub(BATCH_HEADER_BITS) / token).clamp(1, WalkBatch::MAX_TOKENS)
    }

    /// Encodes to real bytes (used by tests to validate `bit_size`).
    pub fn encode(&self, n: usize) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(self.tokens().len() as u64, BATCH_HEADER_BITS);
        for t in self.tokens() {
            w.write_bits(t.source as u64, bits_for_node_id(n));
            w.write_bits(u64::from(t.remaining), self.len_bits as usize);
        }
        w.finish()
    }

    /// Decodes from bytes produced by [`WalkBatch::encode`].
    ///
    /// Total over malformed input: a truncated stream or a source id
    /// outside `0..n` (the id field can physically encode up to
    /// `2^⌈log₂ n⌉ - 1`) yields `None`, never a panic or an out-of-range
    /// token handed to the walk logic.
    pub fn decode(data: &[u8], n: usize, len_bits: u8) -> Option<WalkBatch> {
        let mut r = BitReader::new(data);
        let count = r.read_bits(BATCH_HEADER_BITS)?;
        let mut tokens = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let source = r.read_bits(bits_for_node_id(n))? as NodeId;
            if source >= n {
                return None;
            }
            let remaining = r.read_bits(len_bits as usize)? as u32;
            tokens.push(WalkToken { source, remaining });
        }
        Some(WalkBatch::new(tokens, len_bits))
    }
}

impl PartialEq for WalkBatch {
    fn eq(&self, other: &WalkBatch) -> bool {
        self.len_bits == other.len_bits && self.tokens() == other.tokens()
    }
}

impl Eq for WalkBatch {}

impl Message for WalkBatch {
    fn bit_size(&self, n: usize) -> usize {
        BATCH_HEADER_BITS + self.tokens().len() * WalkBatch::token_bits(n, self.len_bits)
    }

    fn digest(&self, n: usize, crc: &mut Crc32) {
        crc.update_bits(self.tokens().len() as u64, BATCH_HEADER_BITS);
        for t in self.tokens() {
            crc.update_bits(t.source as u64, bits_for_node_id(n));
            crc.update_bits(u64::from(t.remaining), self.len_bits as usize);
        }
    }

    /// Structure-aware corruption: the batch is encoded to its real wire
    /// bytes, mangled there, and re-decoded, so the damage exercises the
    /// receiver's actual decode path. Truncation can silently shorten the
    /// batch (fewer tokens that still parse) — precisely the failure mode
    /// only a frame checksum catches.
    fn corrupted(&self, kind: CorruptionKind, n: usize, rng: &mut StdRng) -> Option<Self> {
        let bytes = self.encode(n);
        match kind {
            CorruptionKind::BitFlip => {
                let mut buf = bytes.to_vec();
                let bit = rng.gen_range(0..self.bit_size(n));
                // MSB-first, matching the BitWriter layout.
                buf[bit / 8] ^= 0x80 >> (bit % 8);
                WalkBatch::decode(&buf, n, self.len_bits)
            }
            CorruptionKind::Truncate => {
                let keep = rng.gen_range(0..bytes.len());
                WalkBatch::decode(&bytes[..keep], n, self.len_bits)
            }
            CorruptionKind::Garbage => {
                let buf: Vec<u8> = (0..bytes.len())
                    .map(|_| rng.gen_range(0..256u64) as u8)
                    .collect();
                WalkBatch::decode(&buf, n, self.len_bits)
            }
        }
    }
}

impl WireState for WalkToken {
    fn encode_state(&self, w: &mut BitWriter) {
        self.source.encode_state(w);
        self.remaining.encode_state(w);
    }
    fn decode_state(r: &mut BitReader<'_>) -> Option<WalkToken> {
        Some(WalkToken {
            source: usize::decode_state(r)?,
            remaining: u32::decode_state(r)?,
        })
    }
}

// Host-side checkpoint encoding (full-width fields; the budget-charged
// on-wire form stays `WalkBatch::encode`/`decode`). The token list is
// written as a `Vec<WalkToken>` (64-bit length, then the tokens) whatever
// its storage, so images do not depend on the inline form.
impl WireState for WalkBatch {
    fn encode_state(&self, w: &mut BitWriter) {
        let tokens = self.tokens();
        (tokens.len() as u64).encode_state(w);
        for token in tokens {
            token.encode_state(w);
        }
        self.len_bits.encode_state(w);
    }
    fn decode_state(r: &mut BitReader<'_>) -> Option<WalkBatch> {
        let tokens = Vec::decode_state(r)?;
        Some(WalkBatch::new(tokens, u8::decode_state(r)?))
    }
}

/// One phase-2 message: the fixed-point scaled count for the source whose
/// index equals the current phase-2 round (so the source id travels for
/// free in the round number — the pipelining that gives Lemma 3's `O(n)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountMsg {
    /// `round(ξ_v^s · 2^F / d(v))` for the implied source `s`.
    pub scaled: u64,
    /// Field width in bits, fixed per run.
    pub value_bits: u8,
}

impl CountMsg {
    /// Encodes to real bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(self.scaled, self.value_bits as usize);
        w.finish()
    }

    /// Decodes from bytes produced by [`CountMsg::encode`].
    pub fn decode(data: &[u8], value_bits: u8) -> Option<CountMsg> {
        let mut r = BitReader::new(data);
        Some(CountMsg {
            scaled: r.read_bits(value_bits as usize)?,
            value_bits,
        })
    }
}

impl WireState for CountMsg {
    fn encode_state(&self, w: &mut BitWriter) {
        self.scaled.encode_state(w);
        self.value_bits.encode_state(w);
    }
    fn decode_state(r: &mut BitReader<'_>) -> Option<CountMsg> {
        Some(CountMsg {
            scaled: u64::decode_state(r)?,
            value_bits: u8::decode_state(r)?,
        })
    }
}

impl Message for CountMsg {
    fn bit_size(&self, _n: usize) -> usize {
        self.value_bits as usize
    }

    fn digest(&self, _n: usize, crc: &mut Crc32) {
        crc.update_bits(self.scaled, self.value_bits as usize);
    }

    /// Mangles the scaled count within its fixed field width; every
    /// mutation still parses (the field is a bare integer), so corruption
    /// of an unchecksummed count silently skews the centrality sum —
    /// the distortion E13 measures.
    fn corrupted(&self, kind: CorruptionKind, _n: usize, rng: &mut StdRng) -> Option<Self> {
        let width = self.value_bits as usize;
        let mask = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let scaled = match kind {
            CorruptionKind::BitFlip => self.scaled ^ (1 << rng.gen_range(0..width)),
            CorruptionKind::Truncate => {
                let keep = rng.gen_range(0..width);
                if keep == 0 {
                    0
                } else {
                    self.scaled >> (width - keep)
                }
            }
            CorruptionKind::Garbage => rng.gen_range(0..u64::MAX) & mask,
        };
        Some(CountMsg {
            scaled,
            value_bits: self.value_bits,
        })
    }
}

/// Width of the remaining-length field for maximum walk length `l`.
pub fn len_field_bits(l: usize) -> u8 {
    bits_for_count(l as u64) as u8
}

/// Width of the fixed-point count field for `K` walks of length `l` with
/// `f` fractional bits: counts are at most `K (l + 1)` and scaling by
/// `2^f / d ≤ 2^f` keeps them below `K (l + 1) 2^f`.
pub fn count_field_bits(k: usize, l: usize, f: u8) -> u8 {
    let max = (k as u64) * (l as u64 + 1);
    (bits_for_count(max) + f as usize) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_batch_round_trips_and_size_matches() {
        let n = 300;
        let len_bits = len_field_bits(500);
        let batch = WalkBatch::new(
            vec![
                WalkToken {
                    source: 7,
                    remaining: 499,
                },
                WalkToken {
                    source: 299,
                    remaining: 1,
                },
                WalkToken {
                    source: 0,
                    remaining: 0,
                },
            ],
            len_bits,
        );
        let bytes = batch.encode(n);
        // Declared size must match the real encoding (up to byte padding).
        assert_eq!(bytes.len(), batch.bit_size(n).div_ceil(8));
        let back = WalkBatch::decode(&bytes, n, len_bits).unwrap();
        assert_eq!(back, batch);
    }

    /// The `Vec`-form batch the inline one replaced, kept as the
    /// reference its wire forms must match byte for byte.
    struct VecBatch {
        tokens: Vec<WalkToken>,
        len_bits: u8,
    }

    impl VecBatch {
        fn encode(&self, n: usize) -> Vec<u8> {
            let mut w = BitWriter::new();
            w.write_bits(self.tokens.len() as u64, BATCH_HEADER_BITS);
            for t in &self.tokens {
                w.write_bits(t.source as u64, bits_for_node_id(n));
                w.write_bits(u64::from(t.remaining), self.len_bits as usize);
            }
            w.finish()
        }

        fn bit_size(&self, n: usize) -> usize {
            BATCH_HEADER_BITS + self.tokens.len() * WalkBatch::token_bits(n, self.len_bits)
        }

        fn digest(&self, n: usize) -> u32 {
            let mut crc = Crc32::new();
            crc.update_bits(self.tokens.len() as u64, BATCH_HEADER_BITS);
            for t in &self.tokens {
                crc.update_bits(t.source as u64, bits_for_node_id(n));
                crc.update_bits(u64::from(t.remaining), self.len_bits as usize);
            }
            crc.finish()
        }

        fn state(&self) -> Vec<u8> {
            let mut w = BitWriter::new();
            self.tokens.encode_state(&mut w);
            self.len_bits.encode_state(&mut w);
            w.finish()
        }
    }

    #[test]
    fn walk_batch_wire_forms_match_the_vec_reference() {
        use rand::SeedableRng;
        let n = 300;
        let len_bits = len_field_bits(500);
        let mut rng = StdRng::seed_from_u64(16);
        for count in [0, 1, 2, WalkBatch::MAX_TOKENS] {
            for _ in 0..20 {
                let tokens: Vec<WalkToken> = (0..count)
                    .map(|_| WalkToken {
                        source: rng.gen_range(0..n),
                        remaining: rng.gen_range(0..=500),
                    })
                    .collect();
                let reference = VecBatch {
                    tokens: tokens.clone(),
                    len_bits,
                };
                let batch = WalkBatch::new(tokens, len_bits);
                assert_eq!(batch.tokens(), reference.tokens.as_slice());
                if let [token] = *batch.tokens() {
                    assert_eq!(batch, WalkBatch::one(token, len_bits));
                }
                let bytes = batch.encode(n);
                assert_eq!(bytes, reference.encode(n), "{count} tokens");
                assert_eq!(batch.bit_size(n), reference.bit_size(n));
                let mut crc = Crc32::new();
                batch.digest(n, &mut crc);
                assert_eq!(crc.finish(), reference.digest(n));
                let back = WalkBatch::decode(&bytes, n, len_bits).unwrap();
                assert_eq!(back.tokens(), reference.tokens.as_slice());
                let mut w = BitWriter::new();
                batch.encode_state(&mut w);
                let state = w.finish();
                assert_eq!(state, reference.state(), "{count} tokens");
                let restored = WalkBatch::decode_state(&mut BitReader::new(&state)).unwrap();
                assert_eq!(restored, batch);
                let mut w = BitWriter::new();
                restored.encode_state(&mut w);
                assert_eq!(w.finish(), state);
            }
        }
    }

    #[test]
    fn batch_capacity_fits_the_budget_and_the_header() {
        let (n, len_bits) = (25, len_field_bits(25));
        let token = WalkBatch::token_bits(n, len_bits);
        assert_eq!(token, 10);
        // B(25) = c · 5 bits: 4 header bits, then whole tokens.
        assert_eq!(WalkBatch::capacity(20, n, len_bits), 1);
        assert_eq!(WalkBatch::capacity(40, n, len_bits), 3);
        assert_eq!(WalkBatch::capacity(80, n, len_bits), 7);
        // The 4-bit header counts at most 15 tokens.
        assert_eq!(WalkBatch::capacity(320, n, len_bits), WalkBatch::MAX_TOKENS);
        // A budget below one token still ships one (the engine rejects it).
        assert_eq!(WalkBatch::capacity(3, n, len_bits), 1);
    }

    #[test]
    fn count_msg_round_trips() {
        let m = CountMsg {
            scaled: 123_456,
            value_bits: 20,
        };
        let bytes = m.encode();
        assert_eq!(bytes.len(), 20usize.div_ceil(8));
        assert_eq!(CountMsg::decode(&bytes, 20).unwrap(), m);
    }

    #[test]
    fn field_widths_are_logarithmic() {
        assert_eq!(len_field_bits(1), 1);
        assert_eq!(len_field_bits(255), 8);
        assert_eq!(len_field_bits(256), 9);
        // K = 8, l = 100, F = 12: max count 8 * 101 = 808 -> 10 bits + 12.
        assert_eq!(count_field_bits(8, 100, 12), 22);
    }

    #[test]
    fn decode_rejects_out_of_range_sources() {
        // n = 300 → 9-bit ids, so ids 300..511 are physically encodable
        // but invalid; decode must reject them rather than hand the walk
        // logic an out-of-range node.
        let n = 300;
        let len_bits = len_field_bits(500);
        let mut w = BitWriter::new();
        w.write_bits(1, 4); // one token
        w.write_bits(450, bits_for_node_id(n)); // invalid source
        w.write_bits(3, len_bits as usize);
        assert_eq!(WalkBatch::decode(&w.finish(), n, len_bits), None);
    }

    #[test]
    fn corruption_exercises_the_real_codec() {
        use rand::SeedableRng;
        let n = 300;
        let len_bits = len_field_bits(500);
        let batch = WalkBatch::new(
            vec![
                WalkToken {
                    source: 7,
                    remaining: 499,
                },
                WalkToken {
                    source: 299,
                    remaining: 1,
                },
            ],
            len_bits,
        );
        let mut rng = StdRng::seed_from_u64(5);
        let mut survived = 0usize;
        let mut destroyed = 0usize;
        for _ in 0..200 {
            for kind in CorruptionKind::ALL {
                match batch.corrupted(kind, n, &mut rng) {
                    Some(m) => {
                        survived += 1;
                        // Whatever survives decodes cleanly: in-range
                        // sources, same field widths.
                        assert!(m.tokens().iter().all(|t| t.source < n));
                        assert_eq!(m.len_bits, len_bits);
                    }
                    None => destroyed += 1,
                }
            }
        }
        // Both outcomes must occur: some damage parses (and would be
        // silently accepted without checksums), some destroys the frame.
        assert!(survived > 0, "no corruption ever parsed");
        assert!(destroyed > 0, "no corruption ever destroyed the frame");
    }

    #[test]
    fn count_corruption_stays_in_field_width() {
        use rand::SeedableRng;
        let m = CountMsg {
            scaled: 123_456,
            value_bits: 20,
        };
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            for kind in CorruptionKind::ALL {
                let c = m.corrupted(kind, 300, &mut rng).unwrap();
                assert!(c.scaled < (1 << 20), "{kind:?} escaped the field");
                assert_eq!(c.value_bits, 20);
            }
        }
    }

    #[test]
    fn digests_cover_token_content() {
        let n = 300;
        let len_bits = len_field_bits(500);
        let d = |batch: &WalkBatch| {
            let mut crc = Crc32::new();
            batch.digest(n, &mut crc);
            crc.finish()
        };
        let a = WalkBatch::one(
            WalkToken {
                source: 7,
                remaining: 9,
            },
            len_bits,
        );
        let b = WalkBatch::one(
            WalkToken {
                source: 7,
                remaining: 8,
            },
            len_bits,
        );
        assert_ne!(d(&a), d(&b));
        // The digest hashes exactly the encoded bits: byte-hashing the
        // real encoding gives the same checksum.
        assert_eq!(d(&a), congest_sim::wire::crc32(&a.encode(n)));
    }

    #[test]
    fn single_token_fits_default_budget() {
        // The paper's discipline sends one token per edge per round; that
        // must fit B(n) = 8 ceil(log2 n) for reasonable n and l = n ln(1/eps).
        for n in [8usize, 64, 1000, 1 << 20] {
            let l = (n as f64 * 10.0f64.ln()).ceil() as usize;
            let batch = WalkBatch::one(
                WalkToken {
                    source: 0,
                    remaining: l as u32,
                },
                len_field_bits(l),
            );
            let budget = congest_sim::SimConfig::default().budget_bits(n);
            assert!(
                batch.bit_size(n) <= budget,
                "n = {n}: {} > {budget}",
                batch.bit_size(n)
            );
        }
    }
}
