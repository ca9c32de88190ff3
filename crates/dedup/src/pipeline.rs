//! The five-stage pipeline and its end-to-end verification.
//!
//! ```text
//! fragment ─q1→ chunk ─q2→ dedup ─q3→ compress ─q4→ reorder/output
//! ```
//!
//! * **fragment** splits the input into coarse fragments (large fixed
//!   blocks), modelling dedup's I/O stage without the I/O.
//! * **chunk** refines fragments into content-defined chunks.
//! * **dedup** keeps a fingerprint table; duplicate chunks become
//!   references.
//! * **compress** compresses first-occurrence chunks.
//! * **reorder** assembles the archive in stream order.
//!
//! Stage threads communicate through [`PipeQueue`](crate::queue::PipeQueue)s carrying chunk ids into
//! a shared append-only arena. One thread per stage keeps ids in order, so
//! the reorder stage doubles as an order check.

use std::sync::Mutex;
use std::time::Instant;

use crate::chunker::{chunk_boundaries, fingerprint};
use crate::compressor::{compress, decompress};
use crate::queue::make_queue;

pub use crate::queue::QueueKind;

/// Coarse fragment size produced by stage 1.
const FRAGMENT_BYTES: usize = 128 << 10;

/// Queue capacity between stages.
const QUEUE_CAPACITY: usize = 64;

/// A compressed, deduplicated archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Archive {
    /// Archive entries in stream order.
    pub entries: Vec<ArchiveEntry>,
}

/// One chunk's representation in the archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchiveEntry {
    /// First occurrence: compressed payload.
    Unique {
        /// Compressed bytes.
        data: Vec<u8>,
    },
    /// Duplicate of an earlier unique entry (index into the *unique*
    /// sequence).
    Duplicate {
        /// Which unique chunk this repeats.
        of: usize,
    },
}

impl Archive {
    /// Total compressed payload bytes (references cost 8 bytes each).
    #[must_use]
    pub fn compressed_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|e| match e {
                ArchiveEntry::Unique { data } => data.len(),
                ArchiveEntry::Duplicate { .. } => 8,
            })
            .sum()
    }

    /// Reconstruct the original stream.
    ///
    /// # Errors
    ///
    /// Returns a description when an entry is malformed.
    pub fn unpack(&self) -> Result<Vec<u8>, String> {
        let mut uniques: Vec<Vec<u8>> = Vec::new();
        let mut out = Vec::new();
        for e in &self.entries {
            match e {
                ArchiveEntry::Unique { data } => {
                    let raw = decompress(data)?;
                    out.extend_from_slice(&raw);
                    uniques.push(raw);
                }
                ArchiveEntry::Duplicate { of } => {
                    let raw = uniques
                        .get(*of)
                        .ok_or_else(|| format!("dangling duplicate ref {of}"))?;
                    out.extend_from_slice(raw);
                }
            }
        }
        Ok(out)
    }
}

/// Run metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStats {
    /// Input bytes.
    pub input_bytes: usize,
    /// Archive payload bytes.
    pub compressed_bytes: usize,
    /// Chunks processed.
    pub chunks: usize,
    /// Chunks eliminated as duplicates.
    pub duplicates: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Compression speed in MB/s (the figure's "compress speed").
    pub mb_per_s: f64,
}

/// Tokens flowing through the queues: an index into the run's arena, with
/// `u64::MAX` unused (queues never carry it).
struct Arena {
    /// Chunk payloads (set by the chunk stage, read by later stages).
    chunks: Mutex<Vec<Vec<u8>>>,
}

impl Arena {
    fn push(&self, data: Vec<u8>) -> u64 {
        let mut g = self.chunks.lock().expect("arena poisoned");
        g.push(data);
        (g.len() - 1) as u64
    }

    fn get(&self, id: u64) -> Vec<u8> {
        self.chunks.lock().expect("arena poisoned")[id as usize].clone()
    }
}

/// Run the pipeline over `input` with the chosen inter-stage queue kind.
/// Returns the archive (for verification) and the run's stats.
#[must_use]
pub fn run_pipeline(input: &[u8], kind: QueueKind) -> (Archive, PipelineStats) {
    let start = Instant::now();
    let arena = Arena {
        chunks: Mutex::new(Vec::new()),
    };

    let (mut q1_tx, mut q1_rx) = make_queue(kind, QUEUE_CAPACITY);
    let (mut q2_tx, mut q2_rx) = make_queue(kind, QUEUE_CAPACITY);
    let (mut q3_tx, mut q3_rx) = make_queue(kind, QUEUE_CAPACITY);
    let (mut q4_tx, mut q4_rx) = make_queue(kind, QUEUE_CAPACITY);

    let mut chunks_total = 0usize;
    let mut duplicates = 0usize;
    let mut entries: Vec<ArchiveEntry> = Vec::new();

    std::thread::scope(|s| {
        // Stage 1: fragment. Tokens on q1 are (offset << 20 | len) packed?
        // Fragments are bounded, so pack offset/len into one u64.
        let frag = s.spawn(move || {
            let mut off = 0usize;
            while off < input.len() {
                let len = FRAGMENT_BYTES.min(input.len() - off);
                // offset is < 2^44 for any input we generate; len < 2^20.
                q1_tx.push(((off as u64) << 20) | len as u64);
                off += len;
            }
            q1_tx.close();
        });

        // Stage 2: content-defined chunking.
        let arena_ref = &arena;
        let chunk_stage = s.spawn(move || {
            while let Some(tok) = q1_rx.pop() {
                let off = (tok >> 20) as usize;
                let len = (tok & 0xF_FFFF) as usize;
                let frag = &input[off..off + len];
                for (co, cl) in chunk_boundaries(frag) {
                    let id = arena_ref.push(frag[co..co + cl].to_vec());
                    q2_tx.push(id);
                }
            }
            q2_tx.close();
        });

        // Stage 3: dedup. Sends `id` for unique chunks and
        // `(1 << 63) | unique_index` for duplicates.
        let dedup_stage = s.spawn(move || {
            let mut table: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
            let mut unique_count = 0usize;
            while let Some(id) = q2_rx.pop() {
                let data = arena_ref.get(id);
                let fp = fingerprint(&data);
                match table.get(&fp) {
                    Some(&uidx) => q3_tx.push((1 << 63) | uidx as u64),
                    None => {
                        table.insert(fp, unique_count);
                        unique_count += 1;
                        q3_tx.push(id);
                    }
                }
            }
            q3_tx.close();
        });

        // Stage 4: compress unique chunks; duplicates pass through.
        let compress_stage = s.spawn(move || {
            while let Some(tok) = q3_rx.pop() {
                if tok & (1 << 63) != 0 {
                    q4_tx.push(tok);
                } else {
                    let data = arena_ref.get(tok);
                    let id = arena_ref.push(compress(&data));
                    q4_tx.push(id);
                }
            }
            q4_tx.close();
        });

        // Stage 5: reorder/output — runs on this thread.
        while let Some(tok) = q4_rx.pop() {
            chunks_total += 1;
            if tok & (1 << 63) != 0 {
                duplicates += 1;
                entries.push(ArchiveEntry::Duplicate {
                    of: (tok & !(1 << 63)) as usize,
                });
            } else {
                entries.push(ArchiveEntry::Unique {
                    data: arena.get(tok),
                });
            }
        }

        frag.join().expect("fragment stage panicked");
        chunk_stage.join().expect("chunk stage panicked");
        dedup_stage.join().expect("dedup stage panicked");
        compress_stage.join().expect("compress stage panicked");
    });

    let seconds = start.elapsed().as_secs_f64();
    let archive = Archive { entries };
    let stats = PipelineStats {
        input_bytes: input.len(),
        compressed_bytes: archive.compressed_bytes(),
        chunks: chunks_total,
        duplicates,
        seconds,
        mb_per_s: input.len() as f64 / 1e6 / seconds.max(1e-9),
    };
    (archive, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{generate_input, WorkloadSize};

    fn verify_kind(kind: QueueKind) {
        let input = generate_input(WorkloadSize::Tiny, 60, 11);
        let (archive, stats) = run_pipeline(&input, kind);
        assert_eq!(archive.unpack().expect("unpack"), input, "{kind:?}");
        assert_eq!(stats.input_bytes, input.len());
        assert!(stats.chunks > 0);
        assert!(stats.mb_per_s > 0.0);
    }

    #[test]
    fn lock_based_pipeline_roundtrips() {
        verify_kind(QueueKind::LockBased);
    }

    #[test]
    fn ring_buffer_pipeline_roundtrips() {
        verify_kind(QueueKind::RingBuffer);
    }

    #[test]
    fn pilot_pipeline_roundtrips() {
        verify_kind(QueueKind::RingBufferPilot);
    }

    #[test]
    fn redundant_input_produces_duplicates_and_shrinks() {
        let input = generate_input(WorkloadSize::Tiny, 85, 3);
        let (archive, stats) = run_pipeline(&input, QueueKind::LockBased);
        assert!(stats.duplicates > 0, "redundant input must dedup");
        assert!(
            stats.compressed_bytes < stats.input_bytes,
            "dedup + compression must shrink a redundant stream"
        );
        assert_eq!(archive.unpack().unwrap(), input);
    }

    #[test]
    fn all_kinds_agree_on_archive_content() {
        let input = generate_input(WorkloadSize::Tiny, 50, 5);
        let (a, _) = run_pipeline(&input, QueueKind::LockBased);
        let (b, _) = run_pipeline(&input, QueueKind::RingBuffer);
        let (c, _) = run_pipeline(&input, QueueKind::RingBufferPilot);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }
}
