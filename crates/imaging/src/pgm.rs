//! Tiny image writers for the visual figures: binary-free ASCII PGM files and
//! terminal ASCII art (used by `repro fig7` to render precipitation maps).

use std::io::Write;
use std::path::Path;

/// Write an `h x w` field as an ASCII PGM (P2), normalizing to 0..255.
pub fn write_pgm(path: &Path, field: &[f32], h: usize, w: usize) -> std::io::Result<()> {
    assert_eq!(field.len(), h * w);
    let (lo, hi) = min_max(field);
    let span = if hi > lo { hi - lo } else { 1.0 };
    let mut out = String::with_capacity(h * w * 4 + 32);
    out.push_str(&format!("P2\n{w} {h}\n255\n"));
    for (i, &v) in field.iter().enumerate() {
        let g = (((v - lo) / span) * 255.0).round().clamp(0.0, 255.0) as u32;
        out.push_str(&g.to_string());
        out.push(if (i + 1) % w == 0 { '\n' } else { ' ' });
    }
    std::fs::File::create(path)?.write_all(out.as_bytes())
}

/// Render a field as coarse ASCII art (downsampled to at most `cols` wide).
pub fn ascii_art(field: &[f32], h: usize, w: usize, cols: usize) -> String {
    assert_eq!(field.len(), h * w);
    const RAMP: &[u8] = b" .:-=+*#%@";
    let cols = cols.min(w).max(1);
    // Terminal cells are ~2x taller than wide; halve the row density.
    let rows = ((h * cols) / (2 * w)).max(1);
    let (lo, hi) = min_max(field);
    let span = if hi > lo { hi - lo } else { 1.0 };
    let mut s = String::with_capacity(rows * (cols + 1));
    for r in 0..rows {
        for c in 0..cols {
            // Average the block this cell covers.
            let y0 = r * h / rows;
            let y1 = ((r + 1) * h / rows).max(y0 + 1);
            let x0 = c * w / cols;
            let x1 = ((c + 1) * w / cols).max(x0 + 1);
            let mut acc = 0.0f32;
            for y in y0..y1 {
                for x in x0..x1 {
                    acc += field[y * w + x];
                }
            }
            let v = acc / ((y1 - y0) * (x1 - x0)) as f32;
            let idx = (((v - lo) / span) * (RAMP.len() - 1) as f32).round() as usize;
            s.push(RAMP[idx.min(RAMP.len() - 1)] as char);
        }
        s.push('\n');
    }
    s
}

fn min_max(field: &[f32]) -> (f32, f32) {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in field {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgm_roundtrip_header() {
        let dir = std::env::temp_dir().join("orbit2_pgm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pgm");
        write_pgm(&path, &[0.0, 0.5, 1.0, 0.25], 2, 2).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("P2"));
        assert_eq!(lines.next(), Some("2 2"));
        assert_eq!(lines.next(), Some("255"));
        assert_eq!(lines.next(), Some("0 128"));
    }

    #[test]
    fn ascii_art_dimensions() {
        let art = ascii_art(&vec![0.5; 32 * 64], 32, 64, 32);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 8); // 32 cols * 32/64 / 2
        assert!(lines.iter().all(|l| l.len() == 32));
    }

    #[test]
    fn ascii_art_contrast() {
        // Bright half should map to denser glyphs than dark half.
        let (h, w) = (4, 8);
        let f: Vec<f32> = (0..h * w).map(|i| if i % w >= 4 { 1.0 } else { 0.0 }).collect();
        let art = ascii_art(&f, h, w, 8);
        let first = art.lines().next().unwrap().as_bytes();
        assert_eq!(first[0], b' ');
        assert_eq!(first[7], b'@');
    }
}
