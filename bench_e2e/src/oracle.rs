//! Output checks: every answer the program gives is compared with a
//! reference computed in-process from the same decoded input.

/// The reference answer for one trip: its summary text, or the error the
/// pipeline reports for it.
pub type Expected = Result<String, String>;

/// The reference answer computed from an in-process pipeline call.
pub fn expected_of(r: Result<stmaker::Summary, stmaker::SummarizeError>) -> Expected {
    r.map(|s| s.text).map_err(|e| e.to_string())
}

/// Whether an in-process pipeline result equals the reference: the same
/// text, or the same error.
pub fn result_matches(
    expected: &Expected,
    got: &Result<stmaker::Summary, stmaker::SummarizeError>,
) -> bool {
    match (expected, got) {
        (Ok(want), Ok(s)) => *want == s.text,
        (Err(want), Err(e)) => *want == e.to_string(),
        _ => false,
    }
}

/// Whether a `POST /summarize` response is right: `200` with the summary
/// text and a newline, or a typed `422` where the reference errs too.
pub fn summarize_response_ok(expected: &Expected, status: u16, body: &[u8]) -> bool {
    match expected {
        Ok(text) => {
            status == 200
                && body.len() == text.len() + 1
                && body.starts_with(text.as_bytes())
                && body.ends_with(b"\n")
        }
        Err(_) => status == 422,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_oracle_rejects_corrupt_and_refused_responses() {
        let want: Expected = Ok("The car started from A to B.".to_owned());
        assert!(summarize_response_ok(&want, 200, b"The car started from A to B.\n"));
        assert!(!summarize_response_ok(&want, 200, b"The car started from A to C.\n"));
        assert!(!summarize_response_ok(&want, 200, b"The car started from A to B."));
        assert!(!summarize_response_ok(&want, 200, b"The car started from A to B.\n\n"));
        assert!(!summarize_response_ok(&want, 422, b"{\"error\": \"x\", \"status\": 422}\n"));
        assert!(!summarize_response_ok(&want, 429, b""));
        assert!(!summarize_response_ok(&want, 0, b""));
        let err: Expected = Err("calibration failed".to_owned());
        assert!(summarize_response_ok(&err, 422, b"{\"error\": \"x\"}\n"));
        assert!(!summarize_response_ok(&err, 200, b"The car started from A to B.\n"));
        assert!(!summarize_response_ok(&err, 503, b""));
    }
}
