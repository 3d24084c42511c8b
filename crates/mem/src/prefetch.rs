//! L1D stride prefetcher (Table 1: "stride prefetcher" after Baer).

use crate::Line;

const TABLE_SIZE: usize = 16;

#[derive(Clone, Copy, Debug, Default)]
struct Stream {
    valid: bool,
    region: u64,
    last: Line,
    stride: i64,
    confidence: u8,
}

/// Detects constant-stride miss streams and proposes prefetch lines.
///
/// Streams are tracked per 64-line region; two consecutive identical deltas
/// arm the stream, after which each access proposes `degree` lines ahead.
#[derive(Clone, Debug, Default)]
pub struct StridePrefetcher {
    table: [Stream; TABLE_SIZE],
    degree: usize,
}

impl StridePrefetcher {
    /// Creates a prefetcher proposing `degree` lines ahead.
    pub fn new(degree: usize) -> StridePrefetcher {
        StridePrefetcher { table: [Stream::default(); TABLE_SIZE], degree }
    }

    /// Observes a demand miss for `line`; returns lines to prefetch.
    pub fn on_miss(&mut self, line: Line) -> impl Iterator<Item = Line> {
        let region = line >> (6 + fa_isa::LINE_SHIFT); // 64-line regions
        let slot = (region as usize) % TABLE_SIZE;
        let s = &mut self.table[slot];
        let mut ahead = 0;
        if s.valid && s.region == region {
            let delta = line as i64 - s.last as i64;
            if delta == s.stride && delta != 0 {
                s.confidence = s.confidence.saturating_add(1);
            } else {
                s.stride = delta;
                s.confidence = 0;
            }
            s.last = line;
            if s.confidence >= 1 && s.stride != 0 {
                ahead = self.degree as i64;
            }
        } else {
            *s = Stream { valid: true, region, last: line, stride: 0, confidence: 0 };
        }
        let stride = s.stride;
        (1..=ahead).map(move |k| line as i64 + stride * k).filter(|t| *t >= 0).map(|t| t as Line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_unit_stride_after_training() {
        let mut p = StridePrefetcher::new(2);
        assert_eq!(p.on_miss(0).count(), 0); // allocate
        assert_eq!(p.on_miss(64).count(), 0); // learn stride
        let out: Vec<Line> = p.on_miss(128).collect(); // confirm
        assert_eq!(out, vec![192, 256]);
    }

    #[test]
    fn detects_negative_stride() {
        let mut p = StridePrefetcher::new(1);
        let _ = p.on_miss(640);
        let _ = p.on_miss(576);
        let out: Vec<Line> = p.on_miss(512).collect();
        assert_eq!(out, vec![448]);
    }

    #[test]
    fn random_pattern_stays_quiet() {
        let mut p = StridePrefetcher::new(2);
        let _ = p.on_miss(0);
        let _ = p.on_miss(64);
        let _ = p.on_miss(320);
        assert_eq!(p.on_miss(128).count(), 0); // stride broken, retraining
    }
}
