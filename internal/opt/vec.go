package opt

// VecMinRows is the smallest operator input for which batch-at-a-time
// execution amortises its setup — converting the input to column
// vectors, allocating selection and offset arrays — over the row
// engine's direct per-tuple loop. Below it the planner keeps the row
// operators; results are byte-identical either way, so this is purely a
// performance decision.
const VecMinRows = 128

// VectorizeWorthwhile reports whether an operator input of the given
// estimated or actual row count is large enough for the batch operators
// to pay off.
func VectorizeWorthwhile(rows float64) bool { return rows >= VecMinRows }
