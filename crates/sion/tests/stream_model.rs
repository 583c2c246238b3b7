//! Model-based testing of the chunk-stream engine through the serial
//! writer: random sequences of seeks and writes must read back exactly
//! like a reference flat-buffer model of each task's logical stream.

use proptest::prelude::*;
use sion::{Alignment, Multifile, SerialWriter, SionParams};
use vfs::MemFs;

/// Reference model: per (rank, block) a flat buffer with a high-water
/// usage mark, mirroring the chunk semantics.
#[derive(Default, Clone)]
struct ModelTask {
    /// Per block: data bytes (fixed chunk capacity) and high-water mark.
    blocks: Vec<(Vec<u8>, usize)>,
}

impl ModelTask {
    fn ensure_block(&mut self, b: usize, cap: usize) {
        while self.blocks.len() <= b {
            self.blocks.push((vec![0u8; cap], 0));
        }
    }

    /// Write at (block, pos), spilling into subsequent blocks.
    fn write(&mut self, mut block: usize, mut pos: usize, data: &[u8], cap: usize) {
        let mut rest = data;
        while !rest.is_empty() {
            self.ensure_block(block, cap);
            let room = cap - pos;
            let take = room.min(rest.len());
            let (buf, used) = &mut self.blocks[block];
            buf[pos..pos + take].copy_from_slice(&rest[..take]);
            *used = (*used).max(pos + take);
            rest = &rest[take..];
            block += 1;
            pos = 0;
        }
    }

    /// The logical stream: concatenation of the used prefix of each block.
    fn logical(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (buf, used) in &self.blocks {
            out.extend_from_slice(&buf[..*used]);
        }
        out
    }
}

/// One scripted operation.
#[derive(Debug, Clone)]
enum Op {
    /// Seek rank to (block, pos).
    Seek {
        rank: usize,
        block: usize,
        pos: usize,
    },
    /// Chunk-splitting write on a rank's current position.
    Write { rank: usize, data: Vec<u8> },
}

fn op_strategy(nranks: usize, cap: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..nranks, 0usize..4, 0..cap).prop_map(|(rank, block, pos)| Op::Seek { rank, block, pos }),
        (0..nranks, prop::collection::vec(any::<u8>(), 1..200))
            .prop_map(|(rank, data)| Op::Write { rank, data }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary interleavings of seeks and writes across ranks read back
    /// exactly like the reference model — both through the logical stream
    /// and through per-chunk addressed reads.
    #[test]
    fn serial_writer_matches_reference_model(
        nranks in 1usize..5,
        ops in prop::collection::vec(op_strategy(4, 96), 1..60),
    ) {
        const CAP: usize = 96;
        let fs = MemFs::with_block_size(32); // capacity 96 = 3 FS blocks
        let chunksizes = vec![CAP as u64; nranks];
        let params = SionParams::new(0).with_alignment(Alignment::Fixed(32));
        let mut writer = SerialWriter::create(&fs, "m.sion", &chunksizes, &params).unwrap();

        // Each rank's model tracks its stream; the writer tracks its own
        // cursor, so the model must mirror cursor movement too.
        let mut models = vec![ModelTask::default(); nranks];
        let mut cursors = vec![(0usize, 0usize); nranks]; // (block, pos)

        for op in &ops {
            match op {
                Op::Seek { rank, block, pos } => {
                    if *rank >= nranks { continue; }
                    writer.seek(*rank, *block as u64, *pos as u64).unwrap();
                    cursors[*rank] = (*block, *pos);
                }
                Op::Write { rank, data } => {
                    if *rank >= nranks { continue; }
                    writer.select_rank(*rank).unwrap();
                    writer.write(data).unwrap();
                    let (b, p) = cursors[*rank];
                    models[*rank].write(b, p, data, CAP);
                    // Advance the model cursor the way the writer does.
                    let total = p + data.len();
                    cursors[*rank] = (b + total / CAP, total % CAP);
                }
            }
        }
        writer.close().unwrap();

        let mf = Multifile::open(&fs, "m.sion").unwrap();
        for (rank, model) in models.iter().enumerate() {
            // Logical stream equality.
            let got = mf.read_rank(rank).unwrap();
            prop_assert_eq!(&got, &model.logical(), "rank {} logical stream", rank);
            // Per-chunk usage and contents.
            let task = mf.location(rank).unwrap();
            for (b, (buf, used)) in model.blocks.iter().enumerate() {
                let chunk = task.chunks.get(b);
                let stored_used = chunk.map(|c| c.used).unwrap_or(0);
                prop_assert_eq!(stored_used, *used as u64, "rank {} block {}", rank, b);
                if *used > 0 {
                    let mut back = vec![0u8; *used];
                    let n = mf.read_at(rank, b as u64, 0, &mut back).unwrap();
                    prop_assert_eq!(n, *used);
                    prop_assert_eq!(&back[..], &buf[..*used]);
                }
            }
        }
    }
}
