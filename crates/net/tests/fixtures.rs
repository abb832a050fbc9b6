//! Compatibility fixture: `tests/fixtures/shard_query.frame` is one `ShardQuery` frame
//! (two 17-coefficient queries, a 199-byte payload) written by commit `69f52f3`, the last
//! one whose checksum was the byte-at-a-time loop in `p2h-store`. Whichever arm of
//! `p2h_core::kernels::crc32` runs must accept its checksum through both frame readers,
//! write the same bytes back through both frame writers, and refuse a flipped payload
//! bit as `Corrupt`.
//!
//! One `#[test]`: `force_scalar` is process-global.

use p2h_core::kernels;
use p2h_net::wire::{frame_bytes, frame_from_buf, read_frame, write_frame};
use p2h_net::{Message, NetError};

const FRAME: &[u8] = include_bytes!("fixtures/shard_query.frame");
const HEADER_LEN: usize = 12;

#[test]
fn a_frame_written_by_the_parent_commit_holds_under_both_dispatch_settings() {
    for forced in [true, false] {
        kernels::force_scalar(forced);

        let (message, consumed) = frame_from_buf(FRAME).unwrap().expect("a whole frame");
        assert_eq!(consumed, FRAME.len());
        match &message {
            Message::ShardQuery { shard: 1, queries } => {
                assert_eq!(queries.iter().map(|q| q.coeffs.len()).collect::<Vec<_>>(), [17, 17]);
            }
            other => panic!("expected the ShardQuery for shard 1, got {other:?}"),
        }
        assert_eq!(read_frame(&mut &FRAME[..], "fixture.recv").unwrap(), Some(message.clone()));

        assert_eq!(frame_bytes(&message), FRAME);
        let mut written = Vec::new();
        write_frame(&mut written, &message, "fixture.send").unwrap();
        assert_eq!(written, FRAME);

        let mut flipped = FRAME.to_vec();
        flipped[HEADER_LEN + 100] ^= 0x04;
        let expected = u32::from_le_bytes(FRAME[8..12].try_into().unwrap());
        for refused in [
            frame_from_buf(&flipped).map(|_| ()),
            read_frame(&mut &flipped[..], "fixture.recv").map(|_| ()),
        ] {
            match refused {
                Err(NetError::Corrupt { expected_crc, actual_crc }) => {
                    assert_eq!(expected_crc, expected);
                    assert_ne!(actual_crc, expected);
                }
                other => panic!("flipped payload bit: expected Corrupt, got {other:?}"),
            }
        }
    }
}
