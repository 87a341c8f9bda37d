(** In-memory span recorder for the traced run.

    A span is a name, a start and end on the monotonic clock, the span
    that was open when it started, and the job it belongs to. Spans
    are kept in memory and serialized once, when the pass ends. While
    recording is off, [with_span] only calls its function. *)

module Json = Pgpu_trace.Json

type span = { name : string; start : int; mutable stop : int; parent : int; job : int }

let now () = Int64.to_int (Monotonic_clock.now ())
let recording = ref false
let recorded : span list ref = ref []
let count = ref 0
let open_stack : int list ref = ref []
let current_job = ref (-1)

let with_span name f =
  if not !recording then f ()
  else begin
    let parent = match !open_stack with id :: _ -> id | [] -> -1 in
    let id = !count in
    incr count;
    let s = { name; start = now (); stop = 0; parent; job = !current_job } in
    recorded := s :: !recorded;
    open_stack := id :: !open_stack;
    Fun.protect f ~finally:(fun () ->
        s.stop <- now ();
        open_stack := List.tl !open_stack)
  end

(** Spans in start order as [[name, start_ns, end_ns, parent, job]];
    [parent] is an index into the same list, -1 for a root. *)
let to_json () =
  Json.List
    (List.rev_map
       (fun s -> Json.List [ Json.Str s.name; Json.Int s.start; Json.Int s.stop; Json.Int s.parent; Json.Int s.job ])
       !recorded)
