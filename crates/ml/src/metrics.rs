//! Evaluation metrics.

/// Why a metric could not be computed.
///
/// Carried as data instead of a panic so harnesses that score *generated*
/// models (the differential fuzzer) can distinguish "the metric rejected
/// this input" from "two engines disagree on a valid input".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsError {
    /// The prediction and label streams have different lengths.
    LengthMismatch {
        /// Number of predictions supplied.
        predictions: usize,
        /// Number of ground-truth labels supplied.
        labels: usize,
    },
    /// Both streams are empty: accuracy is 0/0.
    Empty,
}

impl std::fmt::Display for MetricsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricsError::LengthMismatch {
                predictions,
                labels,
            } => write!(
                f,
                "length mismatch: {predictions} predictions scored against {labels} labels"
            ),
            MetricsError::Empty => write!(f, "accuracy of an empty prediction set is undefined"),
        }
    }
}

impl std::error::Error for MetricsError {}

/// Fraction of predictions equal to the ground truth.
///
/// Returns [`MetricsError::LengthMismatch`] when the streams disagree on
/// length and [`MetricsError::Empty`] when both are empty (0/0 would
/// otherwise surface as `NaN` and silently poison every downstream
/// comparison).
///
/// ```
/// use ml::metrics::accuracy;
/// let acc = accuracy([0usize, 1, 2].into_iter(), [0usize, 1, 1].into_iter()).unwrap();
/// assert!((acc - 2.0 / 3.0).abs() < 1e-12);
/// ```
pub fn accuracy(
    predictions: impl Iterator<Item = usize>,
    truth: impl Iterator<Item = usize>,
) -> Result<f64, MetricsError> {
    let mut preds = predictions;
    let mut labels = truth;
    let mut correct = 0usize;
    let mut total = 0usize;
    loop {
        match (preds.next(), labels.next()) {
            (Some(p), Some(t)) => {
                correct += (p == t) as usize;
                total += 1;
            }
            (Some(_), None) => {
                return Err(MetricsError::LengthMismatch {
                    predictions: total + 1 + preds.count(),
                    labels: total,
                })
            }
            (None, Some(_)) => {
                return Err(MetricsError::LengthMismatch {
                    predictions: total,
                    labels: total + 1 + labels.count(),
                })
            }
            (None, None) => break,
        }
    }
    if total == 0 {
        return Err(MetricsError::Empty);
    }
    Ok(correct as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_and_zero_accuracy() {
        assert_eq!(
            accuracy([1usize, 2].into_iter(), [1usize, 2].into_iter()).unwrap(),
            1.0
        );
        assert_eq!(
            accuracy([0usize, 0].into_iter(), [1usize, 2].into_iter()).unwrap(),
            0.0
        );
    }

    #[test]
    fn length_mismatch_is_an_error_in_both_directions() {
        assert_eq!(
            accuracy([0usize].into_iter(), [0usize, 1].into_iter()),
            Err(MetricsError::LengthMismatch {
                predictions: 1,
                labels: 2
            })
        );
        assert_eq!(
            accuracy([0usize, 1, 2].into_iter(), [0usize].into_iter()),
            Err(MetricsError::LengthMismatch {
                predictions: 3,
                labels: 1
            })
        );
    }

    #[test]
    fn empty_set_is_an_error_not_a_nan() {
        // 0/0 must surface as a typed error; a silent NaN would compare
        // false against every threshold and corrupt model selection.
        let r = accuracy(std::iter::empty(), std::iter::empty());
        assert_eq!(r, Err(MetricsError::Empty));
    }
}
