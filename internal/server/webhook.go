package server

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"susc/internal/faultinject"
)

// SignatureHeader carries the HMAC of a webhook body:
// "sha256=<hex hmac-sha256(secret, body)>". Receivers recompute it with
// VerifySignature before trusting the payload.
const SignatureHeader = "X-Susc-Signature"

// Sign computes the signature header value for a webhook body.
func Sign(secret, body []byte) string {
	m := hmac.New(sha256.New, secret)
	m.Write(body)
	return "sha256=" + hex.EncodeToString(m.Sum(nil))
}

// VerifySignature reports whether sig authenticates body under secret,
// in constant time.
func VerifySignature(secret, body []byte, sig string) bool {
	return hmac.Equal([]byte(Sign(secret, body)), []byte(sig))
}

// WebhookStats counts the lifecycle of callback deliveries.
type WebhookStats struct {
	Delivered int64 `json:"delivered"`
	Failed    int64 `json:"failed"`  // all retries exhausted, or shutdown cut the backoff
	Dropped   int64 `json:"dropped"` // queue full at enqueue time
}

// delivery is one callback waiting in the queue.
type delivery struct {
	url  string
	body []byte
}

// webhookQueue delivers result callbacks asynchronously: requests
// enqueue, one worker drains with bounded exponential backoff, and every
// body is HMAC-signed. The queue is bounded — under sustained callback
// failure the server sheds deliveries instead of memory.
type webhookQueue struct {
	ch     chan delivery
	ctx    context.Context // aborts in-flight backoff waits on shutdown
	cancel context.CancelFunc
	wg     sync.WaitGroup
	secret []byte
	client *http.Client

	attempts int           // delivery attempts per callback
	backoff  time.Duration // first retry delay; doubles per attempt

	delivered atomic.Int64
	failed    atomic.Int64
	dropped   atomic.Int64
}

// webhookDepth bounds the callback queue: under sustained callback failure
// the server drops (and counts) deliveries instead of holding memory,
// while a burst of this many results waits for the one worker.
const webhookDepth = 64

func newWebhookQueue(secret []byte) *webhookQueue {
	ctx, cancel := context.WithCancel(context.Background())
	q := &webhookQueue{
		ch:       make(chan delivery, webhookDepth),
		ctx:      ctx,
		cancel:   cancel,
		secret:   secret,
		client:   &http.Client{Timeout: 10 * time.Second},
		attempts: 3,
		backoff:  100 * time.Millisecond,
	}
	q.wg.Add(1)
	go q.worker()
	return q
}

// enqueue queues one signed callback; a full queue drops it (graceful
// degradation: verification results were already streamed to the
// requester, the callback is best-effort).
func (q *webhookQueue) enqueue(url string, body []byte) bool {
	select {
	case q.ch <- delivery{url: url, body: body}:
		return true
	default:
		q.dropped.Add(1)
		return false
	}
}

// worker drains the queue until close(q.ch); the channel range is the
// cancellation signal.
func (q *webhookQueue) worker() {
	defer q.wg.Done()
	for d := range q.ch {
		q.deliver(d)
	}
}

// deliver POSTs one callback with bounded exponential backoff. Shutdown
// (q.ctx) aborts both the waits between attempts and a POST in flight,
// so a dead callback endpoint cannot stall the drain.
func (q *webhookQueue) deliver(d delivery) {
	back := q.backoff
	for attempt := 1; ; attempt++ {
		if faultinject.Enabled() {
			faultinject.Fire(faultinject.WebhookDeliver, d.url)
		}
		if err := q.post(d); err == nil {
			q.delivered.Add(1)
			return
		}
		if attempt >= q.attempts {
			q.failed.Add(1)
			return
		}
		select {
		case <-time.After(back):
			back *= 2
		case <-q.ctx.Done():
			q.failed.Add(1)
			return
		}
	}
}

func (q *webhookQueue) post(d delivery) error {
	req, err := http.NewRequestWithContext(q.ctx, http.MethodPost, d.url, bytes.NewReader(d.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(SignatureHeader, Sign(q.secret, d.body))
	resp, err := q.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("webhook: %s returned %s", d.url, resp.Status)
	}
	return nil
}

// close drains outstanding deliveries (their retry backoffs cut short by
// the queue context) and waits for the worker to exit.
func (q *webhookQueue) close() {
	q.cancel()
	close(q.ch)
	q.wg.Wait()
}

func (q *webhookQueue) stats() WebhookStats {
	return WebhookStats{
		Delivered: q.delivered.Load(),
		Failed:    q.failed.Load(),
		Dropped:   q.dropped.Load(),
	}
}
