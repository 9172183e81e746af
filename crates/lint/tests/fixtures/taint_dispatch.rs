// determinism_taint fixture — a checksum that picks its implementation
// from the CPU it runs on, under a WAL sink (the test presents this file
// as `crates/lsm/src/wal.rs`). The two arms are supposed to return the
// same value, but the analyzer cannot prove that: machine identity reaches
// the encoder's output unless somebody vouches for the equivalence. With
// the annotation below this file is clean; the test also strips the
// annotation and expects the dispatch to be reported.

pub struct LogWriter;

impl LogWriter {
    pub fn add_record(&mut self, payload: &[u8]) -> Result<(), ()> {
        self.emit(1, payload)
    }

    pub fn emit(&mut self, kind: u8, payload: &[u8]) -> Result<(), ()> {
        let crc = checksum(payload);
        let _ = (kind, crc);
        Ok(())
    }
}

fn checksum(data: &[u8]) -> u32 {
    // ldc-lint: allow(determinism_taint) — fixture: both arms return the same value, pinned by an equivalence proptest
    if std::arch::is_x86_feature_detected!("sse4.2") {
        return checksum_hw(data);
    }
    checksum_table(data)
}

fn checksum_hw(data: &[u8]) -> u32 {
    data.len() as u32
}

fn checksum_table(data: &[u8]) -> u32 {
    data.len() as u32
}
