package hca

// State reports the current QP state.
func (qp *QP) State() QPState { return qp.state }
