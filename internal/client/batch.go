package client

import "fmt"

// Record is one named batch entry: a sketch envelope bound for the
// named stream ("" targets the default stream).
type Record struct {
	Stream   string
	Envelope []byte
}

// PushBatchNamed pushes many records over one long-lived connection —
// the shape the relay tier and bulk loaders need, where dialing per
// message (Push's one-shot contract) would dominate the cost of
// 10^5-group flushes.
//
// Records are pushed in order, each individually acked, through the
// client's retry loop (see exchange): a transient failure redials and
// resumes from the failing record, attempts are budgeted per record,
// and a permanent refusal (mismatch, corrupt, unsupported) aborts the
// batch. The error names the failing index; everything before it was
// delivered and acked.
//
// It returns the number of records durably acked.
func (c *Client) PushBatchNamed(records []Record) (pushed int, err error) {
	pushed, _, err = c.exchange(len(records), func(l *link, i int) error {
		return c.push(l, records[i].Stream, records[i].Envelope)
	})
	if err != nil {
		err = fmt.Errorf("client: batch envelope %d/%d: %w", pushed, len(records), err)
	}
	return pushed, err
}
