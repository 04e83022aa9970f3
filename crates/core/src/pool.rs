//! The host worker pool, re-exported from [`tlmm_scratchpad::pool`] (it
//! lives there so `tlmm-memsim` shares it), plus the `threads` check at
//! the sorter API edges.

pub use tlmm_scratchpad::pool::{host_threads, map_indexed, run_indexed};

/// Validate a `threads` knob at an API edge: zero is a configuration error
/// (mirrors `lanes == 0` handling), not a silent clamp.
pub(crate) fn validate_threads(threads: usize) -> Result<(), crate::SortError> {
    if threads == 0 {
        return Err(crate::SortError::BadConfig {
            reason: "threads must be at least 1",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_rejected() {
        assert!(matches!(
            validate_threads(0),
            Err(crate::SortError::BadConfig { .. })
        ));
        assert!(validate_threads(1).is_ok());
    }
}
