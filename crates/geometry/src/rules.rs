//! Design rules (paper Table 1).

/// Minimum-size design rules for clip synthesis and DRC.
///
/// The GAN-OPC paper synthesizes its 4000-instance training library "based on
/// size and spacing rules" summarized in Table 1 for the 32 nm M1 layer:
///
/// | Item | Min size (nm) |
/// |------|---------------|
/// | M1 critical dimension | 80 |
/// | Pitch | 140 |
/// | Tip-to-tip distance | 60 |
///
/// `min_spacing` is derived as `pitch - cd` (140 − 80 = 60 nm) — the
/// line-to-line gap implied by minimum-pitch wiring.
///
/// ```
/// use ganopc_geometry::DesignRules;
/// let r = DesignRules::m1_32nm();
/// assert_eq!(r.min_cd_nm, 80);
/// assert_eq!(r.min_pitch_nm, 140);
/// assert_eq!(r.min_tip_to_tip_nm, 60);
/// assert_eq!(r.min_spacing_nm(), 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignRules {
    /// Minimum wire width (critical dimension), nm.
    pub min_cd_nm: i64,
    /// Minimum center-to-center pitch of parallel wires, nm.
    pub min_pitch_nm: i64,
    /// Minimum distance between facing line ends, nm.
    pub min_tip_to_tip_nm: i64,
}

impl DesignRules {
    /// The Table 1 rule set used throughout the paper (32 nm M1).
    pub const fn m1_32nm() -> Self {
        DesignRules { min_cd_nm: 80, min_pitch_nm: 140, min_tip_to_tip_nm: 60 }
    }

    /// Creates a custom rule set.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_cd_nm < min_pitch_nm` and
    /// `min_tip_to_tip_nm > 0`.
    pub fn new(min_cd_nm: i64, min_pitch_nm: i64, min_tip_to_tip_nm: i64) -> Self {
        assert!(min_cd_nm > 0, "cd must be positive");
        assert!(min_pitch_nm > min_cd_nm, "pitch must exceed cd");
        assert!(min_tip_to_tip_nm > 0, "tip-to-tip must be positive");
        DesignRules { min_cd_nm, min_pitch_nm, min_tip_to_tip_nm }
    }

    /// Line-to-line spacing implied by minimum pitch: `pitch − cd`.
    #[inline]
    pub const fn min_spacing_nm(&self) -> i64 {
        self.min_pitch_nm - self.min_cd_nm
    }

    /// Uniformly scales all rules by an integer factor (used when
    /// experimenting at coarser synthetic nodes).
    pub fn scaled(&self, factor: i64) -> Self {
        assert!(factor > 0, "scale factor must be positive");
        DesignRules {
            min_cd_nm: self.min_cd_nm * factor,
            min_pitch_nm: self.min_pitch_nm * factor,
            min_tip_to_tip_nm: self.min_tip_to_tip_nm * factor,
        }
    }
}

impl Default for DesignRules {
    fn default() -> Self {
        DesignRules::m1_32nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1 of the paper, verbatim.
    #[test]
    fn table1_values() {
        let r = DesignRules::m1_32nm();
        assert_eq!(r.min_cd_nm, 80);
        assert_eq!(r.min_pitch_nm, 140);
        assert_eq!(r.min_tip_to_tip_nm, 60);
    }

    #[test]
    fn spacing_derived_from_pitch() {
        assert_eq!(DesignRules::m1_32nm().min_spacing_nm(), 60);
        assert_eq!(DesignRules::new(100, 250, 70).min_spacing_nm(), 150);
    }

    #[test]
    fn default_is_table1() {
        assert_eq!(DesignRules::default(), DesignRules::m1_32nm());
    }

    #[test]
    fn scaling() {
        let r = DesignRules::m1_32nm().scaled(2);
        assert_eq!(r.min_cd_nm, 160);
        assert_eq!(r.min_pitch_nm, 280);
        assert_eq!(r.min_tip_to_tip_nm, 120);
    }

    #[test]
    #[should_panic(expected = "pitch must exceed cd")]
    fn rejects_pitch_below_cd() {
        let _ = DesignRules::new(80, 80, 60);
    }
}
