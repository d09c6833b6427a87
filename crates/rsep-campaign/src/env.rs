//! `RSEP_*` environment variable parsing, shared by the campaign engine
//! and the `rsep` CLI.
//!
//! One parser, one policy: a *set but malformed* value is a loud warning on
//! stderr (falling back to the default), never a silent fallback — a typo'd
//! `RSEP_MEASURE=60k` changing a campaign's scale without notice is exactly
//! the kind of surprise a reproduction harness must not have.

/// Reads an unsigned integer from the environment. Unset returns `default`;
/// a malformed value warns on stderr and returns `default`.
pub fn env_u64(name: &str, default: u64) -> u64 {
    parse_env_u64(name, std::env::var(name).ok().as_deref(), default)
}

/// The pure parsing policy behind [`env_u64`], split out so tests never
/// have to mutate the process environment (`set_var` races with concurrent
/// `getenv` calls under the parallel test harness).
fn parse_env_u64(name: &str, raw: Option<&str>, default: u64) -> u64 {
    match raw {
        None => default,
        Some(raw) => match raw.trim().parse() {
            Ok(value) => value,
            Err(_) => {
                eprintln!(
                    "warning: {name}={raw:?} is not an unsigned integer; using default {default}"
                );
                default
            }
        },
    }
}

/// Worker-thread count from `RSEP_JOBS` (0 or unset = machine parallelism).
pub fn jobs_from_env() -> usize {
    match env_u64("RSEP_JOBS", 0) as usize {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_returns_default() {
        assert_eq!(parse_env_u64("RSEP_X", None, 17), 17);
    }

    #[test]
    fn set_value_parses_with_surrounding_whitespace() {
        assert_eq!(parse_env_u64("RSEP_X", Some(" 123 "), 17), 123);
        assert_eq!(parse_env_u64("RSEP_X", Some("0"), 17), 0);
    }

    #[test]
    fn malformed_value_falls_back_with_a_warning() {
        assert_eq!(parse_env_u64("RSEP_X", Some("60k"), 17), 17);
        assert_eq!(parse_env_u64("RSEP_X", Some(""), 17), 17);
        assert_eq!(parse_env_u64("RSEP_X", Some("-3"), 17), 17);
    }

    #[test]
    fn jobs_are_at_least_one() {
        assert!(jobs_from_env() >= 1);
    }
}
