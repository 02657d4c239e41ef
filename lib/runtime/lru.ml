type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

(* One shard: only touched under its mutex. *)
type ('k, 'v) shard = {
  m : Mutex.t;
  mutable cap : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable first : ('k, 'v) node option; (* most recently used *)
  mutable last : ('k, 'v) node option; (* least recently used *)
}

type ('k, 'v) t = ('k, 'v) shard array

let shard_count = 16 (* a power of two: [shard_of] masks the hash *)
let share total = (max 0 total + shard_count - 1) / shard_count

let create ~cap =
  Array.init shard_count (fun _ ->
      {
        m = Mutex.create ();
        cap = share cap;
        table = Hashtbl.create 64;
        first = None;
        last = None;
      })

let shard_of k = Hashtbl.hash k land (shard_count - 1)

let locked t k f =
  let s = t.(shard_of k) in
  Mutex.protect s.m (fun () -> f s)

let unlink s n =
  (match n.prev with Some p -> p.next <- n.next | None -> s.first <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> s.last <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front s n =
  n.prev <- None;
  n.next <- s.first;
  (match s.first with Some f -> f.prev <- Some n | None -> s.last <- Some n);
  s.first <- Some n

let evict_to_cap s =
  while Hashtbl.length s.table > s.cap do
    match s.last with
    | None -> assert false (* nonempty table implies nonempty list *)
    | Some n ->
        unlink s n;
        Hashtbl.remove s.table n.key
  done

let find t k =
  locked t k (fun s ->
      match Hashtbl.find_opt s.table k with
      | Some n ->
          unlink s n;
          push_front s n;
          Some n.value
      | None -> None)

let mem t k = locked t k (fun s -> Hashtbl.mem s.table k)

let add t k v =
  locked t k (fun s ->
      if s.cap > 0 then
        match Hashtbl.find_opt s.table k with
        | Some n ->
            n.value <- v;
            unlink s n;
            push_front s n
        | None ->
            let n = { key = k; value = v; prev = None; next = None } in
            Hashtbl.replace s.table k n;
            push_front s n;
            evict_to_cap s)

let length t =
  Array.fold_left
    (fun acc s -> acc + Mutex.protect s.m (fun () -> Hashtbl.length s.table))
    0 t

let set_capacity t cap =
  Array.iter
    (fun s ->
      Mutex.protect s.m (fun () ->
          s.cap <- share cap;
          evict_to_cap s))
    t

let clear t =
  Array.iter
    (fun s ->
      Mutex.protect s.m (fun () ->
          Hashtbl.reset s.table;
          s.first <- None;
          s.last <- None))
    t
