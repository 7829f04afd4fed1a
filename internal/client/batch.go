package client

import "fmt"

// Record is one named batch entry: a sketch envelope bound for the
// named stream ("" targets the default stream).
type Record struct {
	Stream   string
	Envelope []byte
}

// PushBatch pushes many sketch envelopes to the default stream over
// one long-lived connection; see PushBatchNamed.
func (c *Client) PushBatch(envelopes [][]byte) (pushed int, err error) {
	records := make([]Record, len(envelopes))
	for i, env := range envelopes {
		records[i] = Record{Envelope: env}
	}
	return c.PushBatchNamed(records)
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
