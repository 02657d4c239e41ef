type event =
  | Split of int
  | Budget_exhausted of Guard.reason
  | Bad_symbol of string
  | Faulted of string

type t = {
  sid : int;
  sordinal : int;
  sgeneration : int;
      (* the wrapper generation this session was admitted under; a heal
         swap mid-stream never changes a live session's matcher *)
  alpha : Alphabet.t;
  front : Front.table option;
      (* shared fused-front-end token table (supervisor builds one per
         daemon); [None] falls back to a per-session build on the
         first [page] frame *)
  budget : Guard.Budget.t option;
  capture : Buffer.t option;
      (* bounded raw-page capture for the healing quarantine; [None]
         when healing is off, so the hot path allocates nothing *)
  capture_max : int;
  mutable capture_overflow : bool;
  stepper : Extraction.stepper;
      (* the whole matcher state: left-DFA state, position and the
         candidates still open *)
  mutable live : bool;
  mutable failed : bool;
      (* a terminal event (bad symbol / budget / fault) killed the
         session — distinct from a clean finish *)
  mutable tokens : int;
  mutable splits : int;
  mutable f_stream : Front.stream option;
      (* incremental page front-end, created on the first [page] frame
         so token-only sessions never allocate one *)
  mutable pending : event list; (* reversed; drained per feed *)
}

let id t = t.sid
let ordinal t = t.sordinal
let generation t = t.sgeneration
let alive t = t.live
let failed t = t.failed
let tokens_fed t = t.tokens
let splits_emitted t = t.splits

let create ~matcher ~alpha ~id ~ordinal ?front ?fuel ?deadline_ms
    ?(generation = 0) ?capture () =
  let budget =
    match (fuel, deadline_ms) with
    | None, None -> None
    | _ ->
        Some
          (Guard.Budget.make
             ~fuel:(Option.value fuel ~default:max_int)
             ?deadline_ms ())
  in
  {
    sid = id;
    sordinal = ordinal;
    sgeneration = generation;
    alpha;
    front;
    budget;
    capture = Option.map (fun _ -> Buffer.create 1024) capture;
    capture_max = Option.value capture ~default:0;
    capture_overflow = false;
    stepper = Extraction.stepper matcher;
    live = true;
    failed = false;
    tokens = 0;
    splits = 0;
    f_stream = None;
    pending = [];
  }

(* The [n] splits the last step or finish pinned become events. *)
let pin t n =
  for i = 0 to n - 1 do
    t.splits <- t.splits + 1;
    t.pending <- Split (Extraction.pinned t.stepper i) :: t.pending
  done

(* One token: count it, charge one fuel unit (the serve analogue of
   the one-unit-per-DFA-state discipline of lib/automata), step the
   matcher, and pin what the step decided.  An exhausting charge leaves
   the token counted but unstepped. *)
let push t a =
  t.tokens <- t.tokens + 1;
  Guard.charge ~stage:"stream" 1;
  pin t (Extraction.step t.stepper a)

let drain_pending t =
  let evs = List.rev t.pending in
  t.pending <- [];
  evs

(* Terminal event: the session dies, whatever was already pinned this
   call is kept (those splits are valid — they precede the failure
   point in the stream). *)
let die t ev =
  t.live <- false;
  t.failed <- true;
  t.pending <- ev :: t.pending

(* One call's work [f t x] on a live session: the budget is installed
   once around it (the per-token charge meters it), every failure
   becomes a terminal event, and the call answers the events it
   produced.  [f] is a top-level function, so an unbudgeted call
   allocates no closure. *)
let advance t f x =
  if not t.live then []
  else begin
    (try
       match t.budget with
       | None -> f t x
       | Some b -> Guard.with_budget b (fun () -> f t x)
     with
    | Guard.Exhausted r -> die t (Budget_exhausted r)
    | e -> die t (Faulted (Printexc.to_string e)));
    drain_pending t
  end

(* Capture happens outside the liveness check (the supervisor records
   every [page] chunk of a heal-observed session, even after it died on
   an earlier chunk): the quarantined page must be the whole document a
   re-synthesis can re-label, not the prefix up to the failure. *)
let capture_chunk t html =
  match t.capture with
  | None -> ()
  | Some buf ->
      if Buffer.length buf + String.length html > t.capture_max then
        t.capture_overflow <- true
      else Buffer.add_string buf html

let captured_page t =
  match t.capture with
  | Some buf when (not t.capture_overflow) && Buffer.length buf > 0 ->
      Some (Buffer.contents buf)
  | Some _ | None -> None

let rec push_names t = function
  | [] -> ()
  | name :: rest -> (
      match Alphabet.find_exn t.alpha name with
      | exception Invalid_argument _ -> die t (Bad_symbol name)
      | a ->
          push t a;
          push_names t rest)

let feed_names t names =
  Guard_faults.point_indexed Guard_faults.Session_item t.sordinal;
  push_names t names

let feed t names = advance t feed_names names

(* The session's incremental front-end, created on first use.  Each
   symbol the stream emits goes through the exact [feed] path ([push]),
   so a [page] session is indistinguishable from a [tokens] session to
   the matcher. *)
let stream_of t =
  match t.f_stream with
  | Some st -> st
  | None ->
      let tbl =
        match t.front with Some tbl -> tbl | None -> Front.build t.alpha
      in
      let st = Front.stream_make tbl in
      t.f_stream <- Some st;
      st

let feed_html t html =
  Guard_faults.point_indexed Guard_faults.Session_item t.sordinal;
  match Front.stream_feed (stream_of t) html ~emit:(push t) with
  | Ok () -> ()
  | Error name -> die t (Bad_symbol name)

let feed_page t html = advance t feed_html html

(* End of stream: the page front-end is flushed first (carried bytes
   and still-open elements emit their final symbols), then the matcher
   pins the candidates whose right state is final. *)
let flush t () =
  match Option.map (Front.stream_finish ~emit:(push t)) t.f_stream with
  | Some (Error name) -> die t (Bad_symbol name)
  | None | Some (Ok ()) -> pin t (Extraction.finish t.stepper)

let finish t =
  let evs = advance t flush () in
  t.live <- false;
  evs
