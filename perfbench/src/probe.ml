(* Instrumentation the benchmark wraps around calls into the library.

   Every site keeps an exact allocation counter (minor words) in
   preallocated arrays, so counting costs two [Gc.minor_words] reads per
   call and allocates nothing. When tracing is on, each call also becomes
   a span (site, parent, request id, start/end ns, minor words at both
   ends) appended to preallocated columns that only grow between passes
   of the timed window. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

type site =
  | Setup
  | Pass
  | Request
  | Make_io
  | Golden
  | Validate
  | Platform_create
  | Assemble
  | Optimize
  | Lint
  | Bound
  | Compile
  | Accel_exec
  | Cpu_exec
  | Program_run
  | Serve_create
  | Serve_prepare
  | Serve_run
  | Serve_cycle
  | Calibrate

let all_sites =
  [| Setup; Pass; Request; Make_io; Golden; Validate; Platform_create;
     Assemble; Optimize; Lint; Bound; Compile; Accel_exec; Cpu_exec;
     Program_run; Serve_create; Serve_prepare; Serve_run; Serve_cycle;
     Calibrate |]

let n_sites = Array.length all_sites

let index = function
  | Setup -> 0
  | Pass -> 1
  | Request -> 2
  | Make_io -> 3
  | Golden -> 4
  | Validate -> 5
  | Platform_create -> 6
  | Assemble -> 7
  | Optimize -> 8
  | Lint -> 9
  | Bound -> 10
  | Compile -> 11
  | Accel_exec -> 12
  | Cpu_exec -> 13
  | Program_run -> 14
  | Serve_create -> 15
  | Serve_prepare -> 16
  | Serve_run -> 17
  | Serve_cycle -> 18
  | Calibrate -> 19

(* Span names: the library call each site wraps. *)
let name = function
  | Setup -> "setup"
  | Pass -> "pass"
  | Request -> "request"
  | Make_io -> "Kernel.make_io"
  | Golden -> "Kernel.golden"
  | Validate -> "validate"
  | Platform_create -> "Exo_platform.create"
  | Assemble -> "assemble"
  | Optimize -> "Opt.optimize"
  | Lint -> "Exo_check"
  | Bound -> "Bound"
  | Compile -> "Chilite_compile.compile"
  | Accel_exec -> "Chi_runtime.parallel+wait"
  | Cpu_exec -> "Machine.run"
  | Program_run -> "Chilite_run.run"
  | Serve_create -> "Server.create"
  | Serve_prepare -> "Server.prepare"
  | Serve_run -> "Server.run"
  | Serve_cycle -> "Server.run cycle"
  | Calibrate -> "calibrate"

let max_depth = 32

type t = {
  (* exact counters, per site *)
  words : float array;
  child_words : float array;
  (* open-call stack *)
  mutable depth : int;
  stk_site : int array;
  stk_span : int array;
  stk_t0 : int array;
  stk_w0 : float array;
  (* spans, recorded only while [tracing] *)
  mutable tracing : bool;
  mutable req : int;
  mutable n : int;
  mutable sp_site : int array;
  mutable sp_parent : int array;
  mutable sp_req : int array;
  mutable sp_t0 : int array;
  mutable sp_t1 : int array;
  mutable sp_w0 : float array;
  mutable sp_w1 : float array;
}

(* Initial span capacity; the columns double when full. *)
let capacity = 1 lsl 16

let create () =
  {
    words = Array.make n_sites 0.0;
    child_words = Array.make n_sites 0.0;
    depth = 0;
    stk_site = Array.make max_depth 0;
    stk_span = Array.make max_depth (-1);
    stk_t0 = Array.make max_depth 0;
    stk_w0 = Array.make max_depth 0.0;
    tracing = false;
    req = 0;
    n = 0;
    sp_site = Array.make capacity 0;
    sp_parent = Array.make capacity 0;
    sp_req = Array.make capacity 0;
    sp_t0 = Array.make capacity 0;
    sp_t1 = Array.make capacity 0;
    sp_w0 = Array.make capacity 0.0;
    sp_w1 = Array.make capacity 0.0;
  }

let set_tracing t on = t.tracing <- on

(* Starts the next request: spans opened from here on carry its id. *)
let next_request t = t.req <- t.req + 1

let grow t =
  let cap = 2 * Array.length t.sp_site in
  let gi a = Array.append a (Array.make (cap - Array.length a) 0) in
  let gf a = Array.append a (Array.make (cap - Array.length a) 0.0) in
  t.sp_site <- gi t.sp_site;
  t.sp_parent <- gi t.sp_parent;
  t.sp_req <- gi t.sp_req;
  t.sp_t0 <- gi t.sp_t0;
  t.sp_t1 <- gi t.sp_t1;
  t.sp_w0 <- gf t.sp_w0;
  t.sp_w1 <- gf t.sp_w1

(* The clock and the allocation counter are read last on entry and first
   on exit, so a span's interval holds only the wrapped call. *)
let enter t site =
  let d = t.depth in
  if d >= max_depth then invalid_arg "Probe.enter: nesting too deep";
  let s = index site in
  t.stk_site.(d) <- s;
  (if t.tracing then begin
     if t.n = Array.length t.sp_site then grow t;
     let i = t.n in
     t.n <- i + 1;
     t.sp_site.(i) <- s;
     t.sp_parent.(i) <- (if d = 0 then -1 else t.stk_span.(d - 1));
     t.sp_req.(i) <- t.req;
     t.stk_span.(d) <- i
   end
   else t.stk_span.(d) <- -1);
  t.depth <- d + 1;
  t.stk_w0.(d) <- Gc.minor_words ();
  t.stk_t0.(d) <- now_ns ()

let leave t =
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let d = t.depth - 1 in
  if d < 0 then invalid_arg "Probe.leave: no open call";
  t.depth <- d;
  let s = t.stk_site.(d) in
  let dw = w1 -. t.stk_w0.(d) in
  t.words.(s) <- t.words.(s) +. dw;
  if d > 0 then begin
    let p = t.stk_site.(d - 1) in
    t.child_words.(p) <- t.child_words.(p) +. dw
  end;
  let i = t.stk_span.(d) in
  if i >= 0 then begin
    t.sp_t0.(i) <- t.stk_t0.(d);
    t.sp_t1.(i) <- t1;
    t.sp_w0.(i) <- t.stk_w0.(d);
    t.sp_w1.(i) <- w1
  end

let wrap t site f =
  enter t site;
  match f () with
  | r ->
    leave t;
    r
  | exception e ->
    leave t;
    raise e

(* ---- exact counters ---- *)

(* Self allocation per site: its calls' minor words minus those of the
   sites nested in them. *)
type counts = float array

let counts t = Array.init n_sites (fun s -> t.words.(s) -. t.child_words.(s))
let diff a b = Array.init n_sites (fun s -> b.(s) -. a.(s))
let self_words (c : counts) site = c.(index site)

(* ---- spans ---- *)

type span = {
  site : site;
  parent : int;  (** index of the enclosing span, -1 for a root *)
  request : int;
  t0_ns : int;
  t1_ns : int;
  words0 : float;
  words1 : float;
}

let span_count t = t.n

let span t i =
  {
    site = all_sites.(t.sp_site.(i));
    parent = t.sp_parent.(i);
    request = t.sp_req.(i);
    t0_ns = t.sp_t0.(i);
    t1_ns = t.sp_t1.(i);
    words0 = t.sp_w0.(i);
    words1 = t.sp_w1.(i);
  }

(* Self time of spans [lo, hi): duration minus the part covered by child
   spans. Children nest inside their parent, so the self times of a
   closed set of spans sum to the duration of its roots. *)
let self_ns t ~lo ~hi =
  let self = Array.init (hi - lo) (fun k -> t.sp_t1.(lo + k) - t.sp_t0.(lo + k)) in
  for i = lo to hi - 1 do
    let p = t.sp_parent.(i) in
    if p >= lo then
      self.(p - lo) <- self.(p - lo) - (t.sp_t1.(i) - t.sp_t0.(i))
  done;
  self

(* Chrome trace-event JSON (complete events, microsecond timestamps). *)
let write_chrome t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      let base = if t.n > 0 then t.sp_t0.(0) else 0 in
      for i = 0 to t.n - 1 do
        let s = span t i in
        Printf.fprintf oc
          "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"request\":%d,\"minor_words\":%.0f}}\n"
          (if i = 0 then "" else ",")
          (name s.site)
          (float_of_int (s.t0_ns - base) /. 1e3)
          (float_of_int (s.t1_ns - s.t0_ns) /. 1e3)
          i s.parent s.request (s.words1 -. s.words0)
      done;
      output_string oc "]}\n")
