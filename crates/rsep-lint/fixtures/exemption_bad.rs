//! Fixture: exemption-hygiene violations — empty reason, unknown lint,
//! unused exemption, missing parens, unclosed parens, unknown directive.

// lint: exempt(dead-pub-api, )
// lint: exempt(made-up-lint, some reason)
// lint: exempt(dead-pub-api, nothing below ever trips this)
// lint: exempt dead-pub-api
// lint: exempt(dead-pub-api
// lint: suppress(dead-pub-api, wrong verb)
pub fn clean() {}
