(* Fixed worker domains over a chunked index queue, with sequential
   semantics: ordered results, earliest-index winners, earliest-index
   exceptions. See the interface for the contract. *)

type exn_site = { index : int; exn : exn; bt : Printexc.raw_backtrace }

let default_jobs () = Domain.recommended_domain_count ()

let clamp_jobs jobs n =
  (* One domain per unit of work at most; cap the pool well below the
     runtime's domain limit. *)
  max 1 (min jobs (min n 64))

let default_chunk n jobs = max 1 (min 64 (n / (jobs * 8)))

(* Keep the smallest-index exception; the pool re-raises it after the
   drain, so concurrent discovery order never leaks into behaviour. *)
let record_exn slot site =
  let rec go () =
    let cur = Atomic.get slot in
    let smaller =
      match cur with None -> true | Some c -> site.index < c.index
    in
    if smaller && not (Atomic.compare_and_set slot cur (Some site)) then go ()
  in
  go ()

let reraise site = Printexc.raise_with_backtrace site.exn site.bt

(* ------------------------------------------------------------------ *)
(* map                                                                 *)
(* ------------------------------------------------------------------ *)

let map_seq n f =
  (* Explicit 0..n-1 loop: Array.init's evaluation order is
     unspecified, and the earliest-exception guarantee needs it. *)
  if n = 0 then [||]
  else
    let out = Array.make n None in
    for i = 0 to n - 1 do
      out.(i) <- Some (f i)
    done;
    Array.map Option.get out

(* The shared chunked-claim body: one call drains the index queue,
   writing results and recording the earliest exception. Used by the
   per-call [map] below and by the persistent-pool [run]. *)
let make_worker out next failed n chunk f =
  (* racecheck: workers share [out], but the Atomic [next] hands each
     index to exactly one claimant, so writes to out.(i) are disjoint
     and happen-before the joins that read them. *)
  let[@lint.allow "shared-mutable-capture"] worker () =
    let continue = ref true in
    while !continue do
      let start = Atomic.fetch_and_add next chunk in
      if start >= n || Atomic.get failed <> None then continue := false
      else
        for i = start to min (start + chunk) n - 1 do
          match f i with
          | v -> out.(i) <- Some v
          | exception exn ->
              record_exn failed
                { index = i; exn; bt = Printexc.get_raw_backtrace () }
        done
    done
  in
  worker

let map ?(jobs = 1) ?chunk n f =
  if n < 0 then invalid_arg "Domain_pool.map: negative size";
  let jobs = clamp_jobs jobs n in
  if jobs <= 1 || n <= 1 then map_seq n f
  else begin
    let chunk =
      match chunk with Some c -> max 1 c | None -> default_chunk n jobs
    in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let failed = Atomic.make (None : exn_site option) in
    let worker = make_worker out next failed n chunk f in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    match Atomic.get failed with
    | Some site -> reraise site
    | None -> Array.map Option.get out
  end

(* ------------------------------------------------------------------ *)
(* find_first                                                          *)
(* ------------------------------------------------------------------ *)

let find_first_seq n f =
  let rec go i =
    if i >= n then None
    else match f i with Some v -> Some (i, v) | None -> go (i + 1)
  in
  go 0

let find_first ?(jobs = 1) ?chunk n f =
  if n < 0 then invalid_arg "Domain_pool.find_first: negative size";
  let jobs = clamp_jobs jobs n in
  if jobs <= 1 || n <= 1 then find_first_seq n f
  else begin
    let chunk =
      match chunk with Some c -> max 1 c | None -> default_chunk n jobs
    in
    let found = Array.make n None in
    (* [bound] is the smallest index known to terminate the sequential
       scan — a match or a raise. Indices above it are cancelled:
       pending ones are never claimed, in-flight results discarded. *)
    let bound = Atomic.make max_int in
    let failed = Atomic.make (None : exn_site option) in
    let lower i =
      let rec go () =
        let cur = Atomic.get bound in
        if i < cur && not (Atomic.compare_and_set bound cur i) then go ()
      in
      go ()
    in
    let next = Atomic.make 0 in
    (* racecheck: workers share [found], but the Atomic [next] hands
       each index to exactly one claimant, so writes to found.(i) are
       disjoint and happen-before the join that reads found.(b). *)
    let[@lint.allow "shared-mutable-capture"] worker () =
      let continue = ref true in
      while !continue do
        let start = Atomic.fetch_and_add next chunk in
        if start >= n || start > Atomic.get bound then continue := false
        else
          for i = start to min (start + chunk) n - 1 do
            if i < Atomic.get bound then
              match f i with
              | Some v ->
                  found.(i) <- Some v;
                  lower i
              | None -> ()
              | exception exn ->
                  record_exn failed
                    { index = i; exn; bt = Printexc.get_raw_backtrace () };
                  lower i
          done
      done
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    let b = Atomic.get bound in
    if b = max_int then None
    else
      match found.(b) with
      | Some v -> Some (b, v)
      | None -> (
          (* The scan terminated at [b] by raising, and no smaller
             index matched. *)
          match Atomic.get failed with
          | Some site when site.index = b -> reraise site
          | _ -> assert false)
  end

(* ------------------------------------------------------------------ *)
(* Persistent pools                                                    *)
(* ------------------------------------------------------------------ *)

(* A long-lived generation-stamped pool: workers block on a condition
   variable between batches instead of being spawned per call, so the
   per-run domain spawn/join cost disappears from callers that issue
   many batches (bench iterations, repeated [Shard.run] calls).
   Every pool field is only touched under [pm]; the batch bodies
   themselves synchronise through their own Atomics exactly like
   [map]'s workers. *)
type pool = {
  pool_jobs : int;
  pm : Mutex.t;
  work : Condition.t;  (* submitter -> workers: a new generation exists *)
  idle : Condition.t;  (* workers -> submitter: the generation drained *)
  mutable job : (int * (unit -> unit)) option;
      (* the generation the body belongs to: a worker that only wakes
         after the submitter already drained the batch (and cleared
         [job]) must claim nothing, so the claim checks the stamp
         under the same lock that cleared it *)
  mutable gen : int;
  mutable running : int;  (* workers inside the current generation *)
  mutable closed : bool;
  mutable workers : unit Domain.t array;
}

let pool_jobs pool = pool.pool_jobs

let rec worker_loop pool my_gen =
  let claimed =
    Mutex.protect pool.pm (fun () ->
        while (not pool.closed) && pool.gen = my_gen do
          Condition.wait pool.work pool.pm
        done;
        if pool.closed then `Closed
        else
          match pool.job with
          | Some (jg, w) when jg = pool.gen ->
              pool.running <- pool.running + 1;
              `Work (pool.gen, w)
          | _ ->
              (* the batch drained (and was cleared) before this worker
                 woke: nothing left to claim, wait for the next one *)
              `Missed pool.gen)
  in
  match claimed with
  | `Closed -> ()
  | `Missed gen -> worker_loop pool gen
  | `Work (gen, w) ->
      (* Batch bodies built by [make_worker] never raise — exceptions
         are recorded per index and re-raised by the submitter. *)
      (try w () with _ -> ());
      Mutex.protect pool.pm (fun () ->
          pool.running <- pool.running - 1;
          if pool.running = 0 then Condition.broadcast pool.idle);
      worker_loop pool gen

let create ~jobs =
  let jobs = max 1 (min jobs 64) in
  let pool =
    {
      pool_jobs = jobs;
      pm = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      job = None;
      gen = 0;
      running = 0;
      closed = false;
      workers = [||];
    }
  in
  (* racecheck: the spawned loop shares the pool record, but every
     mutable pool field is read and written exclusively inside
     [Mutex.protect pool.pm] brackets (the condition variables hand the
     lock back before any access). *)
  let[@lint.allow "shared-mutable-capture"] boot () = worker_loop pool 0 in
  pool.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn boot);
  pool

let shutdown pool =
  let ws =
    Mutex.protect pool.pm (fun () ->
        if pool.closed then [||]
        else begin
          pool.closed <- true;
          Condition.broadcast pool.work;
          let ws = pool.workers in
          pool.workers <- [||];
          ws
        end)
  in
  Array.iter Domain.join ws

let with_pool ?jobs f =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* The submitter publishes the batch, participates in it, then waits
   for every worker that picked the generation up. A worker that only
   wakes after the queue drained claims no index and exits the
   generation immediately, so the wait below cannot miss work: every
   claimed index belongs to a worker counted in [running] (or to the
   submitter itself). *)
let submit pool w =
  Mutex.protect pool.pm (fun () ->
      if pool.closed then invalid_arg "Domain_pool.run: pool is shut down";
      pool.gen <- pool.gen + 1;
      pool.job <- Some (pool.gen, w);
      Condition.broadcast pool.work);
  w ();
  Mutex.protect pool.pm (fun () ->
      while pool.running > 0 do
        Condition.wait pool.idle pool.pm
      done;
      pool.job <- None)

let run pool ?chunk n f =
  if n < 0 then invalid_arg "Domain_pool.run: negative size";
  let jobs = clamp_jobs pool.pool_jobs n in
  if jobs <= 1 || n <= 1 then map_seq n f
  else begin
    let chunk =
      match chunk with Some c -> max 1 c | None -> default_chunk n jobs
    in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let failed = Atomic.make (None : exn_site option) in
    submit pool (make_worker out next failed n chunk f);
    match Atomic.get failed with
    | Some site -> reraise site
    | None -> Array.map Option.get out
  end
