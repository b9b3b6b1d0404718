//! Unit tests for the shared types (kept out of `types.rs` to keep that
//! file declaration-only).

#[cfg(test)]
mod tests {
    use crate::types::{DispatchMode, PlexusError, SourcePolicy};
    use plexus_kernel::domain::LinkError;

    #[test]
    fn errors_render_usable_messages() {
        let cases: Vec<(PlexusError, &str)> = vec![
            (PlexusError::PortInUse(80), "port 80"),
            (PlexusError::SnoopDenied("x"), "snoop"),
            (PlexusError::SpoofDetected, "source field"),
            (PlexusError::Revoked, "revoked"),
            (
                PlexusError::Link(LinkError::Unresolved(vec!["VM.Map".into()])),
                "VM.Map",
            ),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(
                text.to_lowercase().contains(&needle.to_lowercase()),
                "{text:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn defaults_are_the_paper_defaults() {
        assert_eq!(SourcePolicy::default(), SourcePolicy::Overwrite);
        assert_ne!(DispatchMode::Interrupt, DispatchMode::Thread);
    }
}
