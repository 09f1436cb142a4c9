(* Host speed.  On a shared machine every time in a run drifts with the
   load other tenants put on the host, by tens of percent over minutes:
   the same Table I pass has taken 3.6 s in one run and 5.3 s in
   another.  A run therefore times a fixed kernel about once a second,
   between answers or between passes, and the end-to-end times are
   scaled by [reference_s ()] / the run's median kernel time: they read
   as seconds at the host speed at which the kernel takes
   [reference_s ()].

   The kernel is a pointer chase through 256 KiB.  Timed against Table
   I solves on a 2-vCPU VM whose speed swung by a factor of 1.7, its
   time moved in proportion with theirs (log-log slope 1.06 for cktc,
   1.15 for ckta; the spread of 20 s medians fell from 0.30-0.34 to
   0.08-0.09 of the median), where a chase through 4 MiB swung more
   than the solver and a floating-point loop less.  It uses no qbpart
   code, allocates nothing, and its chain lives outside the OCaml heap,
   so its time moves with the host and not with the program or its
   heap.  A workload whose answers are computed on more than one
   thread (a client and a daemon worker, or two workers) may run on
   both vCPUs, and one can be slowed while the other is not: it gets
   the kernel on two domains at once, and the mean of their times. *)

(* Sattolo's shuffle: a random permutation with a single cycle, so
   following it from 0 visits every cell *)
let cycle n =
  let next = Bigarray.(Array1.create int c_layout n) in
  for i = 0 to n - 1 do
    next.{i} <- i
  done;
  let rng = Random.State.make [| n |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = next.{i} in
    next.{i} <- next.{j};
    next.{j} <- t
  done;
  next

let chain = lazy (cycle (1 lsl 15))

let chase next steps =
  let p = ref 0 in
  for _ = 1 to steps do
    p := Bigarray.Array1.unsafe_get next !p
  done;
  !p

(* domains the kernel runs on at once: the threads a workload's
   answers are computed on *)
let width = ref 1

(* The kernel's median time on the 2-vCPU VM where the bounds in
   BENCHMARK.json were set, on one domain and on two (the two vCPUs
   share caches, so two chases at once take longer than one). *)
let reference_s () = if !width = 1 then 0.097 else 0.135

let samples = ref []
let last = ref neg_infinity

(* Time the kernel on [!width] domains at once and keep the mean of
   their times. *)
let slice () =
  let chain = Lazy.force chain in
  let run () =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (chase chain 8_000_000));
    Unix.gettimeofday () -. t0
  in
  let others = List.init (!width - 1) (fun _ -> Domain.spawn run) in
  let mine = run () in
  let times = mine :: List.map Domain.join others in
  last := Unix.gettimeofday ();
  samples := (Stats.sum times /. float_of_int !width) :: !samples

let every = 1.0

(* seconds spent in [tick]: a pass that ticks takes them off its wall *)
let spent = ref 0.0

(* Time the kernel once for every [every] seconds since it last ran,
   at most three times. *)
let tick () =
  let t0 = Unix.gettimeofday () in
  let due = min 3 (int_of_float ((t0 -. !last) /. every)) in
  if due > 0 then begin
    for _ = 1 to due do
      slice ()
    done;
    spent := !spent +. (!last -. t0)
  end

let kernel_s () = Stats.median !samples

(* multiply a time by this to read it at reference speed *)
let factor () = reference_s () /. kernel_s ()
