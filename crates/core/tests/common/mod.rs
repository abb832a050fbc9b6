//! The CRC-32 every kernel arm is compared with: the byte-at-a-time table loop that was
//! `p2h_store::crc32` until the checksum became a dispatched kernel. It shares no table
//! and no code with the arms. Test-only: the integration tests take it with
//! `mod common;`, and `kernel_bench`, which times it as the baseline row, by `#[path]`.

const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut c = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        table[byte] = c;
        byte += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `data`, one byte a step.
pub fn bytewise_crc32(data: &[u8]) -> u32 {
    !data.iter().fold(u32::MAX, |c, &b| TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8))
}
