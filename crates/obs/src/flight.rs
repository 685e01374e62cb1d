//! Bounded flight recorder and the `bpush-capture-v1` format.
//!
//! The recorder keeps a ring of the most recent broadcast frames (the
//! wire-format segment bytes of each cycle, as produced by the
//! `bpush-broadcast` codec). When a monitor fires — or an
//! [`AbortReason`](bpush_types::AbortReason) watch filter matches — the
//! harness dumps a [`Capture`]: a self-contained, replayable window of
//! wire bytes plus the triggering [`Violation`] and a fingerprint of the
//! affected client's protocol state. Captures are plain text
//! (`bpush-capture-v1`), byte-identical across same-seed runs, and are
//! consumed by `cargo xtask explain` and mc-replay-style re-execution.

use crate::monitor::Violation;
use crate::ring::RingBuffer;

/// The first token of every capture, bumped on breaking format changes.
pub const CAPTURE_MAGIC: &str = "bpush-capture-v1";

/// One retained broadcast frame: the wire bytes of one cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The broadcast cycle the bytes encode.
    pub cycle: u64,
    /// The cycle's wire-format segment bytes.
    pub bytes: Vec<u8>,
}

/// A bounded ring of recent broadcast frames.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    frames: RingBuffer<Frame>,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            frames: RingBuffer::new(capacity),
        }
    }

    /// Retains one cycle's wire bytes, evicting the oldest frame when
    /// the ring is full.
    pub fn record_frame(&mut self, cycle: u64, bytes: &[u8]) {
        self.frames.push(Frame {
            cycle,
            bytes: bytes.to_vec(),
        });
    }

    /// Frames currently retained.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frame has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Frames evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.frames.dropped()
    }

    /// Iterates the retained frames oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Frame> {
        self.frames.iter()
    }

    /// Freezes the retained window into a [`Capture`].
    pub fn capture(
        &self,
        method: &str,
        seed: u64,
        clients: u32,
        params: [u32; 4],
        trigger: Violation,
        fingerprint: u64,
    ) -> Capture {
        Capture {
            method: method.to_string(),
            seed,
            clients,
            params,
            trigger,
            fingerprint,
            dropped: self.frames.dropped(),
            frames: self.frames.iter().cloned().collect(),
        }
    }
}

/// A self-contained replayable capture (`bpush-capture-v1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capture {
    /// The processing method under watch (its stable name).
    pub method: String,
    /// The run's seed.
    pub seed: u64,
    /// The run's client count.
    pub clients: u32,
    /// Run parameters — the wire-codec sizing quadruple, in
    /// `WireParams::derive` argument order: `[db_size, report_window,
    /// txns_per_cycle, cycle_horizon]`. Carrying exactly these lets a
    /// consumer re-derive the codec widths and decode the frames from
    /// the capture alone.
    pub params: [u32; 4],
    /// The violation (or watch pseudo-violation) that fired.
    pub trigger: Violation,
    /// FNV-1a fingerprint of the affected client's protocol state at
    /// capture time.
    pub fingerprint: u64,
    /// Frames that fell off the ring before the capture.
    pub dropped: u64,
    /// The retained wire-format frames, oldest first.
    pub frames: Vec<Frame>,
}

impl Capture {
    /// Renders the canonical text form: byte-identical across same-seed
    /// runs.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let [p0, p1, p2, p3] = self.params;
        let _ = writeln!(
            out,
            "{CAPTURE_MAGIC} method={} seed={} clients={} p0={p0} p1={p1} p2={p2} p3={p3} \
             fingerprint={:016x} dropped={}",
            self.method, self.seed, self.clients, self.fingerprint, self.dropped,
        );
        let _ = writeln!(out, "trigger {}", self.trigger.render());
        for frame in &self.frames {
            let _ = write!(out, "frame cycle={} bytes=", frame.cycle);
            for b in &frame.bytes {
                let _ = write!(out, "{b:02x}");
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Parses a [`Capture::render`]ed capture. Returns `None` on any
    /// malformed line (the format is all-or-nothing).
    pub fn parse(text: &str) -> Option<Capture> {
        let mut lines = text.lines();
        let header = lines.next()?;
        let mut header_parts = header.split_ascii_whitespace();
        if header_parts.next()? != CAPTURE_MAGIC {
            return None;
        }
        let mut method = None;
        let mut seed = None;
        let mut clients = None;
        let (mut p0, mut p1, mut p2, mut p3) = (None, None, None, None);
        let mut fingerprint = None;
        let mut dropped = None;
        for part in header_parts {
            let (key, value) = part.split_once('=')?;
            match key {
                "method" => method = Some(value.to_string()),
                "seed" => seed = value.parse().ok(),
                "clients" => clients = value.parse().ok(),
                "p0" => p0 = value.parse().ok(),
                "p1" => p1 = value.parse().ok(),
                "p2" => p2 = value.parse().ok(),
                "p3" => p3 = value.parse().ok(),
                "fingerprint" => fingerprint = u64::from_str_radix(value, 16).ok(),
                "dropped" => dropped = value.parse().ok(),
                _ => return None,
            }
        }
        let trigger_line = lines.next()?.strip_prefix("trigger ")?;
        let trigger = Violation::parse(trigger_line)?;
        let mut frames = Vec::new();
        let mut saw_end = false;
        for line in lines {
            if line == "end" {
                saw_end = true;
                break;
            }
            let rest = line.strip_prefix("frame cycle=")?;
            let (cycle, hex) = rest.split_once(" bytes=")?;
            let cycle = cycle.parse().ok()?;
            if hex.len() % 2 != 0 {
                return None;
            }
            let mut bytes = Vec::with_capacity(hex.len() / 2);
            for i in (0..hex.len()).step_by(2) {
                let pair = hex.get(i..i + 2)?;
                bytes.push(u8::from_str_radix(pair, 16).ok()?);
            }
            frames.push(Frame { cycle, bytes });
        }
        if !saw_end {
            return None;
        }
        Some(Capture {
            method: method?,
            seed: seed?,
            clients: clients?,
            params: [p0?, p1?, p2?, p3?],
            trigger,
            fingerprint: fingerprint?,
            dropped: dropped?,
            frames,
        })
    }
}

/// FNV-1a over `bytes`: the capture fingerprint hash (the same folding
/// the model checker uses for state hashing).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::MonitorKind;

    fn trigger() -> Violation {
        Violation {
            kind: MonitorKind::Currency,
            client: 3,
            query: 41,
            cycle: 9,
            item: 7,
            write_cycle: 8,
            detail: 9,
        }
    }

    #[test]
    fn recorder_wraps_and_counts_drops() {
        let mut fr = FlightRecorder::new(3);
        assert!(fr.is_empty());
        for c in 0..5u8 {
            fr.record_frame(u64::from(c), &[c, 0xAA]);
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 2);
        let cycles: Vec<u64> = fr.iter().map(|f| f.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4], "oldest evicted first");
    }

    #[test]
    fn capture_roundtrips_through_text() {
        let mut fr = FlightRecorder::new(4);
        fr.record_frame(7, &[0x00, 0x01, 0xfe, 0xff]);
        fr.record_frame(8, &[]);
        fr.record_frame(9, &[0x42]);
        let cap = fr.capture(
            "invalidation-only",
            99,
            4,
            [64, 4, 2, 3],
            trigger(),
            0xdead_beef,
        );
        let text = cap.render();
        assert!(text.starts_with("bpush-capture-v1 "));
        assert!(text.ends_with("end\n"));
        let back = Capture::parse(&text).expect("roundtrip");
        assert_eq!(back, cap);
        assert_eq!(back.frames.len(), 3);
        assert_eq!(back.frames[0].bytes, vec![0x00, 0x01, 0xfe, 0xff]);
        assert_eq!(back.frames[1].bytes, Vec::<u8>::new());
        assert_eq!(back.render(), text, "render is a fixed point");
    }

    #[test]
    fn capture_records_ring_drops() {
        let mut fr = FlightRecorder::new(2);
        for c in 0..5u8 {
            fr.record_frame(u64::from(c), &[c]);
        }
        let cap = fr.capture("sgt", 1, 1, [8, 1, 1, 1], trigger(), 0);
        assert_eq!(cap.dropped, 3);
        assert_eq!(cap.frames.len(), 2);
        let back = Capture::parse(&cap.render()).expect("roundtrip");
        assert_eq!(back.dropped, 3);
    }

    #[test]
    fn parse_rejects_malformed_captures() {
        assert!(Capture::parse("").is_none());
        assert!(Capture::parse("not-a-capture\n").is_none());
        let cap = FlightRecorder::new(2).capture("m", 0, 1, [1, 1, 1, 1], trigger(), 0);
        let text = cap.render();
        // truncate the trailing `end`
        let cut = text.trim_end_matches("end\n");
        assert!(Capture::parse(cut).is_none());
        // corrupt a hex digit count
        let mut fr = FlightRecorder::new(2);
        fr.record_frame(0, &[0xab]);
        let odd = fr
            .capture("m", 0, 1, [1, 1, 1, 1], trigger(), 0)
            .render()
            .replace("bytes=ab", "bytes=abc");
        assert!(Capture::parse(&odd).is_none());
    }

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }
}
