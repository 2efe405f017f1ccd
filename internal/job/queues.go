package job

import (
	"fmt"
	"sort"
)

// BatchQueue is W^b: the FIFO queue of waiting batch jobs, ordered by
// arrival time, except that Move_Dedicated_Head_To_Batch_Head may push a
// rigid (formerly dedicated) job to the front.
//
// The queue keeps its live jobs in jobs[head:]. Removing the head — the
// overwhelmingly common case, since backfilling starts the head whenever it
// fits — just advances head; Push reclaims the dead prefix when the backing
// array fills, so head removal is amortized O(1) with no pointer copying.
type BatchQueue struct {
	jobs []*Job
	head int
}

// NewBatchQueue returns an empty queue.
func NewBatchQueue() *BatchQueue { return &BatchQueue{} }

// Len returns the number of waiting batch jobs (B in the paper).
func (q *BatchQueue) Len() int { return len(q.jobs) - q.head }

// Empty reports whether the queue has no jobs.
func (q *BatchQueue) Empty() bool { return q.Len() == 0 }

// Head returns the first waiting job (w_1^b) or nil.
func (q *BatchQueue) Head() *Job {
	if q.Empty() {
		return nil
	}
	return q.jobs[q.head]
}

// At returns the i-th waiting job (0-based).
func (q *BatchQueue) At(i int) *Job { return q.jobs[q.head+i] }

// Jobs returns the backing slice in queue order. Callers must not reorder
// it; it is exposed so schedulers can scan the queue without copying. It is
// valid only until the next queue mutation.
func (q *BatchQueue) Jobs() []*Job { return q.jobs[q.head:] }

// Push appends an arriving job to the tail (FIFO on arrival).
func (q *BatchQueue) Push(j *Job) {
	if len(q.jobs) == cap(q.jobs) && q.head > 0 {
		// Reclaim the dead prefix instead of growing the array.
		n := copy(q.jobs, q.jobs[q.head:])
		for i := n; i < len(q.jobs); i++ {
			q.jobs[i] = nil
		}
		q.jobs = q.jobs[:n]
		q.head = 0
	}
	q.jobs = append(q.jobs, j)
}

// PushFront inserts a job at the head of the queue. Used by
// Move_Dedicated_Head_To_Batch_Head for due dedicated jobs.
func (q *BatchQueue) PushFront(j *Job) {
	if q.head > 0 {
		q.head--
		q.jobs[q.head] = j
		return
	}
	q.jobs = append(q.jobs, nil)
	copy(q.jobs[1:], q.jobs)
	q.jobs[0] = j
}

// Remove deletes job j from the queue, preserving order. It panics if j is
// not queued: removing an unknown job is always a scheduler bug.
func (q *BatchQueue) Remove(j *Job) {
	for i := q.head; i < len(q.jobs); i++ {
		if q.jobs[i] == j {
			if i == q.head {
				q.jobs[i] = nil
				q.head++
				if q.head == len(q.jobs) {
					q.jobs = q.jobs[:0]
					q.head = 0
				}
				return
			}
			q.jobs = append(q.jobs[:i], q.jobs[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("job: remove of job %d not in batch queue", j.ID))
}

// RemoveAll deletes every job in set from the queue, preserving order.
func (q *BatchQueue) RemoveAll(set []*Job) {
	for _, j := range set {
		q.Remove(j)
	}
}

// Find returns the queued job with the given ID, or nil.
func (q *BatchQueue) Find(id int) *Job {
	for _, j := range q.Jobs() {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// DedicatedQueue is W^d: waiting dedicated jobs kept sorted by increasing
// requested start time (stable on ties, by arrival then ID).
type DedicatedQueue struct {
	jobs []*Job
}

// NewDedicatedQueue returns an empty list.
func NewDedicatedQueue() *DedicatedQueue { return &DedicatedQueue{} }

// Len returns D, the number of waiting dedicated jobs.
func (q *DedicatedQueue) Len() int { return len(q.jobs) }

// Empty reports whether the list has no jobs.
func (q *DedicatedQueue) Empty() bool { return len(q.jobs) == 0 }

// Head returns w_1^d, the dedicated job with the earliest requested start.
func (q *DedicatedQueue) Head() *Job {
	if len(q.jobs) == 0 {
		return nil
	}
	return q.jobs[0]
}

// Jobs returns the backing slice in sorted order (read-only for callers).
func (q *DedicatedQueue) Jobs() []*Job { return q.jobs }

// Push inserts a job keeping the start-time order.
func (q *DedicatedQueue) Push(j *Job) {
	i := sort.Search(len(q.jobs), func(i int) bool {
		a := q.jobs[i]
		if a.ReqStart != j.ReqStart {
			return a.ReqStart > j.ReqStart
		}
		if a.Arrival != j.Arrival {
			return a.Arrival > j.Arrival
		}
		return a.ID > j.ID
	})
	q.jobs = append(q.jobs, nil)
	copy(q.jobs[i+1:], q.jobs[i:])
	q.jobs[i] = j
}

// PopHead removes and returns the earliest dedicated job, or nil.
func (q *DedicatedQueue) PopHead() *Job {
	if len(q.jobs) == 0 {
		return nil
	}
	j := q.jobs[0]
	q.jobs = q.jobs[1:]
	return j
}

// Remove deletes job j; panics if absent.
func (q *DedicatedQueue) Remove(j *Job) {
	for i, x := range q.jobs {
		if x == j {
			q.jobs = append(q.jobs[:i], q.jobs[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("job: remove of job %d not in dedicated queue", j.ID))
}

// Find returns the waiting dedicated job with the given ID, or nil.
func (q *DedicatedQueue) Find(id int) *Job {
	for _, j := range q.jobs {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// TotalAtHeadStart returns tot_start_num: the summed size of every waiting
// dedicated job whose requested start equals the head's requested start
// (Algorithm 2, line 16).
func (q *DedicatedQueue) TotalAtHeadStart() int {
	if len(q.jobs) == 0 {
		return 0
	}
	start := q.jobs[0].ReqStart
	total := 0
	for _, j := range q.jobs {
		if j.ReqStart != start {
			break
		}
		total += j.Size
	}
	return total
}

// ActiveList is A: running jobs sorted by increasing kill-by time, which at
// any instant is the same as increasing residual execution time (the
// paper's ordering), ties broken by increasing ID. A caller that changes a
// running job's kill-by time removes and re-inserts it.
//
// Live jobs occupy jobs[head:]. Jobs normally finish at their kill-by time
// — the front of the order — so the common removal just advances head;
// Insert reclaims the dead prefix when the backing array fills.
type ActiveList struct {
	jobs []*Job
	head int
}

// NewActiveList returns an empty list.
func NewActiveList() *ActiveList { return &ActiveList{} }

// Len returns the number of running jobs.
func (a *ActiveList) Len() int { return len(a.jobs) - a.head }

// Empty reports whether no jobs are running.
func (a *ActiveList) Empty() bool { return a.Len() == 0 }

// Jobs returns running jobs ordered by increasing kill-by time. The slice
// is valid only until the next list mutation.
func (a *ActiveList) Jobs() []*Job { return a.jobs[a.head:] }

// At returns the i-th running job (0-based; a_{i+1} in the paper).
func (a *ActiveList) At(i int) *Job { return a.jobs[a.head+i] }

// Last returns a_A, the running job with the largest residual, or nil.
func (a *ActiveList) Last() *Job {
	if a.Empty() {
		return nil
	}
	return a.jobs[len(a.jobs)-1]
}

// UsedProcessors returns the total processors held by running jobs.
func (a *ActiveList) UsedProcessors() int {
	n := 0
	for _, j := range a.Jobs() {
		n += j.Size
	}
	return n
}

// Insert adds a running job keeping kill-by order.
func (a *ActiveList) Insert(j *Job) {
	if len(a.jobs) == cap(a.jobs) && a.head > 0 {
		n := copy(a.jobs, a.jobs[a.head:])
		for i := n; i < len(a.jobs); i++ {
			a.jobs[i] = nil
		}
		a.jobs = a.jobs[:n]
		a.head = 0
	}
	live := a.jobs[a.head:]
	i := sort.Search(len(live), func(i int) bool {
		x := live[i]
		if x.EndTime != j.EndTime {
			return x.EndTime > j.EndTime
		}
		return x.ID > j.ID
	})
	a.jobs = append(a.jobs, nil)
	copy(a.jobs[a.head+i+1:], a.jobs[a.head+i:])
	a.jobs[a.head+i] = j
}

// Remove deletes a finished job; panics if absent.
func (a *ActiveList) Remove(j *Job) {
	for i := a.head; i < len(a.jobs); i++ {
		if a.jobs[i] == j {
			if i == a.head {
				a.jobs[i] = nil
				a.head++
				if a.head == len(a.jobs) {
					a.jobs = a.jobs[:0]
					a.head = 0
				}
				return
			}
			a.jobs = append(a.jobs[:i], a.jobs[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("job: remove of job %d not in active list", j.ID))
}

// Find returns the running job with the given ID, or nil.
func (a *ActiveList) Find(id int) *Job {
	for _, j := range a.Jobs() {
		if j.ID == id {
			return j
		}
	}
	return nil
}
